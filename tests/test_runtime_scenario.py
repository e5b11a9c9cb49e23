"""Tests for the composed-scenario DSL, campaign gates, and shrinking."""

import dataclasses
import hashlib
import json
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.obs import events as ev
from repro.obs.audit import (
    audit_events,
    audit_serving_events,
    audit_sharded_events,
)
from repro.obs.export import open_record_stream, write_events_binary
from repro.runtime.shard import ShardedAGTRam
from repro.runtime.simulator import SemiDistributedSimulator
from repro.runtime.scenario import (
    CATALOG,
    AdversaryPlane,
    FaultPlane,
    PartitionPlane,
    Scenario,
    materialize,
    run_scenario,
    scenario_fails,
    shrink_scenario,
)


@pytest.fixture(scope="module")
def showcase_outcome():
    return run_scenario(CATALOG["showcase"])


class TestPlaneRoundTrips:
    def test_fault_plane(self):
        p = FaultPlane(crash_rate=0.05, straggler_rate=0.1,
                       serving_crash_rate=0.02, checkpoint_period=4)
        assert FaultPlane.from_dict(json.loads(json.dumps(p.to_dict()))) == p

    def test_adversary_plane_with_window(self):
        p = AdversaryPlane(fraction=0.2, behaviors=("inflate",),
                           window=(3, 9), strikes=2)
        back = AdversaryPlane.from_dict(json.loads(json.dumps(p.to_dict())))
        assert back == p
        assert back.window == (3, 9)

    def test_partition_plane_explicit(self):
        p = PartitionPlane(
            windows=({"start": 2, "end": 5, "islands": [0, 1]},),
            central_crashes=((4, 0),),
        )
        assert p.explicit
        back = PartitionPlane.from_dict(json.loads(json.dumps(p.to_dict())))
        assert back == p

    def test_partition_plane_random_is_not_explicit(self):
        assert not PartitionPlane(fraction=0.3).explicit

    def test_plane_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlane(crash_rate=1.0)
        with pytest.raises(ConfigurationError):
            AdversaryPlane(fraction=1.5)


class TestScenarioRoundTrip:
    def test_full_composition_round_trips_through_json(self):
        sc = Scenario(
            name="rt", seed=42, workload="drift",
            faults=FaultPlane(crash_rate=0.03),
            adversary=AdversaryPlane(fraction=0.25, window=(0, 8)),
            partition=PartitionPlane(fraction=0.2),
            availability_floor=0.8, min_availability=0.9,
        )
        assert Scenario.from_dict(json.loads(json.dumps(sc.to_dict()))) == sc

    def test_null_planes_round_trip_as_none(self):
        sc = Scenario(name="bare", seed=1)
        back = Scenario.from_dict(sc.to_dict())
        assert back.faults is None
        assert back.adversary is None
        assert back.partition is None
        assert back == sc

    def test_from_dict_ignores_unknown_keys(self):
        d = Scenario(name="x").to_dict()
        d["future_knob"] = 123
        assert Scenario.from_dict(d).name == "x"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Scenario(workload="nope")
        with pytest.raises(ConfigurationError):
            Scenario(horizon=0)
        with pytest.raises(ConfigurationError):
            Scenario(regions=0)

    def test_lottery_is_deterministic_per_ticket(self):
        assert Scenario.random(5) == Scenario.random(5)
        assert Scenario.random(5) != Scenario.random(6)
        # Draws are JSON round-trippable like any scenario.
        sc = Scenario.random(11)
        assert Scenario.from_dict(json.loads(json.dumps(sc.to_dict()))) == sc


class TestCatalog:
    def test_names_match_keys_and_round_trip(self):
        for key, sc in CATALOG.items():
            assert sc.name == key
            assert Scenario.from_dict(sc.to_dict()) == sc

    def test_smoke_passes_its_gates(self):
        out = run_scenario(CATALOG["smoke"])
        assert out.ok, out.failures
        assert out.report["serving"]["availability"] >= 0.9

    def test_showcase_survives_the_composed_storm(self, showcase_outcome):
        out = showcase_outcome
        assert out.ok, out.failures
        # All four planes actually materialized.
        assert out.report["planes"] == {
            "faults": True, "serving_faults": True,
            "adversary": True, "partition": True,
        }
        assert out.report["serving"]["availability"] >= 0.95
        assert out.report["invariants"]["violations"] == 0
        assert out.report["audits"]["mechanism_ok"]
        assert out.report["audits"]["serving_ok"]
        assert out.report["audits"]["reauction_ok"]
        # The scripted partition produced real split-brain work.
        assert out.report["placement"]["conflicts"] > 0
        assert out.report["recovery"]["n_incidents"] > 0

    def test_showcase_report_is_byte_reproducible(self, showcase_outcome):
        again = run_scenario(CATALOG["showcase"])
        assert json.dumps(again.report, sort_keys=True) == json.dumps(
            showcase_outcome.report, sort_keys=True
        )

    def test_materialize_null_scenario_has_no_planes(self):
        mat = materialize(Scenario(name="bare", seed=3))
        assert mat.fault_plan is None
        assert mat.serving_faults is None
        assert mat.adversary is None
        assert mat.quarantine is None
        assert mat.partition is None


class TestComposedAudit:
    """Satellite: the composed mechanism log stays audit-clean, and any
    single plane's declarations cannot be tampered with undetected."""

    def test_composed_log_passes_sharded_audit(self, showcase_outcome):
        mech = showcase_outcome.events[: showcase_outcome.split]
        assert audit_sharded_events(mech).ok

    def test_payment_tamper_is_detected(self, showcase_outcome):
        mech = list(showcase_outcome.events[: showcase_outcome.split])
        i = next(
            k for k, e in enumerate(mech)
            if isinstance(e, ev.PaymentEvent) and e.amount > 0
        )
        mech[i] = dataclasses.replace(mech[i], amount=mech[i].amount * 10 + 5)
        assert not audit_sharded_events(mech).ok

    def test_winner_tamper_is_detected(self, showcase_outcome):
        mech = list(showcase_outcome.events[: showcase_outcome.split])
        i = next(
            k for k, e in enumerate(mech) if isinstance(e, ev.WinnerEvent)
        )
        mech[i] = dataclasses.replace(mech[i], value=mech[i].value * 10 + 7)
        assert not audit_sharded_events(mech).ok

    def test_dropped_reconcile_is_detected(self, showcase_outcome):
        mech = showcase_outcome.events[: showcase_outcome.split]
        stripped = [e for e in mech if not isinstance(e, ev.ReconcileEvent)]
        assert len(stripped) < len(mech)  # the split actually reconciled
        assert not audit_sharded_events(stripped).ok

    def test_serve_end_counter_tamper_is_detected(
        self, showcase_outcome, tmp_path, capsys
    ):
        """``ServeEnd``'s hedges, failovers and re-auctions must match
        the events the log records, offline (events, REVB, ``repro
        audit``) and live."""
        from repro.cli import main
        from repro.errors import InvariantViolationError
        from repro.obs.audit import audit_serving_file
        from repro.runtime.invariants import InvariantConfig, InvariantMonitor

        events = list(showcase_outcome.events)
        end = len(events) - 1
        assert isinstance(events[end], ev.ServeEnd)
        kinds = [type(e) for e in events]
        logged = (events[end].hedges, events[end].failovers, events[end].reauctions)
        assert logged == (
            kinds.count(ev.HedgeEvent),
            kinds.count(ev.FailoverEvent),
            kinds.count(ev.ReauctionEvent),
        ) == (121, 23, 1)
        events[end] = dataclasses.replace(
            events[end], hedges=0, failovers=0, reauctions=7
        )
        claims = [
            "serve_end claims 0 hedge(s) but the log records 121",
            "serve_end claims 0 failover(s) but the log records 23",
            "serve_end claims 7 re-auction(s) but the log records 1",
        ]
        assert [v.detail for v in audit_serving_events(events).violations] == claims
        path = write_events_binary(events, tmp_path / "log.rev")
        assert [v.detail for v in audit_serving_file(path).violations] == claims
        assert main(["audit", "--sharded", str(path)]) == 1
        out = capsys.readouterr().out
        assert all(claim in out for claim in claims)

        monitor = InvariantMonitor(sharded=True)
        for e in events:
            monitor.emit(e)
        assert [(v.invariant, v.detail) for v in monitor.violations] == [
            ("structure", f"[structure] tick 0: {claim}") for claim in claims
        ]
        assert [type(e) for e in monitor.events[-3:]] == [ev.InvariantEvent] * 3
        strict = InvariantMonitor(
            config=InvariantConfig(strict=True), sharded=True
        )
        for e in events[:end]:
            strict.emit(e)
        with pytest.raises(InvariantViolationError, match="hedge"):
            strict.emit(events[end])


class TestShrinking:
    def test_impossible_gate_shrinks_to_a_minimal_repro(self):
        broken = dataclasses.replace(
            CATALOG["smoke"], name="broken", min_availability=1.01
        )
        assert scenario_fails(broken)
        shrunk, probes = shrink_scenario(broken, scenario_fails)
        assert 0 < probes <= 64
        assert shrunk.name == "broken-shrunk"
        # An unreachable availability bound fails with every plane
        # stripped, so the shrinker removes all of them.
        assert shrunk.faults is None
        assert shrunk.adversary is None
        assert shrunk.partition is None
        assert shrunk.n_requests < broken.n_requests
        # The minimized scenario still reproduces the failure.
        assert scenario_fails(shrunk)
        # ... and round-trips, so the written repro file is usable.
        assert Scenario.from_dict(shrunk.to_dict()) == shrunk

    def test_passing_scenario_does_not_shrink(self):
        sc = CATALOG["smoke"]
        shrunk, probes = shrink_scenario(sc, scenario_fails)
        assert shrunk == sc
        assert probes > 0  # it did probe, nothing reproduced

    def test_crashing_candidate_counts_as_failing(self):
        def fails(sc):
            raise RuntimeError("boom")

        broken = dataclasses.replace(CATALOG["smoke"], name="crashy")
        shrunk, _ = shrink_scenario(broken, fails, max_steps=3)
        assert shrunk.name == "crashy-shrunk"


class TestStrictMode:
    def test_strict_run_of_a_clean_scenario_completes(self):
        out = run_scenario(CATALOG["smoke"], strict=True)
        assert out.ok, out.failures


def _stream_sha256(events) -> str:
    h = hashlib.sha256()
    for e in events:
        h.update(json.dumps(e.to_dict(), sort_keys=True).encode() + b"\n")
    return h.hexdigest()


class TestPinnedStreams:
    """The composed scenarios' event streams, pinned before the campaign
    presets and the flat central joined the driver: they did not move.

    ``byzantine``, ``showcase`` and ticket 0 were re-pinned when the
    sharded trust boundary started re-pricing each regional bid on the
    island's round-start view: ``byzantine`` stops flagging four honest
    bids, and the other two record a flagged lie's round-start value.
    """

    PINS = {
        "smoke": "e1c79b29b435a9d67f9095c46191666b44727d58ef4d5ded22aa4745b29f0a2c",
        "faultstorm": "b4f11b230f8394a049c82baeae79c3533008851d5522c39f5f42ed662c94f082",
        "byzantine": "1909a55bd7894ca1837e80f5c3a0ae716b9e9f0a72b37dabe737ce261fcaf19f",
        "splitbrain": "f5ea68a907e2a86fb7d624ff8d06a43e85b7252f48d4247c171d32ac9ea32602",
        "showcase": "9028735edecfb7760fb1f34264d324bdfccd79844c659d42aec12c77b1d2a655",
        0: "c8ba5c8587056a02ae689062a69c05007d3dd66c030808bd7437851a0c704dc1",
        1: "6142a499679286f799c0d86736317c25f0643f9790006ebeec662b13e0b55ad2",
        2: "b020f8a8609dd89f246ab8a9eb3b69c918bac36450aa15f7194b55681caf9891",
    }

    @pytest.mark.parametrize("key", list(PINS), ids=str)
    def test_stream_sha256(self, key):
        sc = CATALOG[key] if isinstance(key, str) else Scenario.random(key)
        assert _stream_sha256(run_scenario(sc).events) == self.PINS[key]



#: The adversarial presets, on both centrals: ``byzantine`` and
#: ``showcase`` run the sharded one, ``adversary-*`` the flat one.
ADVERSARIAL_PRESETS = ("byzantine", "showcase", "adversary-25", "adversary-40")


class TestNoHonestQuarantine:
    """Every flagged bid is an injected lie, beyond the registered seeds.

    Before the sharded trust boundary screened each region on the
    island's round-start view, ``byzantine`` quarantined honest agent 3
    at seed 4 and ``showcase`` honest agent 1 at seed 1, and sharded
    precision ranged down to 0.6.
    """

    @pytest.mark.parametrize("name", ADVERSARIAL_PRESETS)
    def test_seeds_0_to_9(self, name):
        for seed in range(10):
            out = run_scenario(dataclasses.replace(CATALOG[name], seed=seed))
            detection = out.report["detection"]
            assert detection["false_quarantines"] == [], (name, seed)
            assert detection["precision"] == 1.0, (name, seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [23, 24])
    def test_composed_160x800_scenario(self, seed):
        """The benchmark's resilience-composed scenario (showcase scaled
        to 160x800 over eight regions); it quarantined honest agent 142
        at seed 23 and agents 5 and 17 at seed 24."""
        sc = dataclasses.replace(
            CATALOG["showcase"],
            name="resilience-composed",
            seed=seed,
            servers=160,
            objects=800,
            requests=400_000,
            regions=8,
            horizon=1000,
            n_requests=20_000,
            faults=FaultPlane(
                crash_rate=0.02,
                straggler_rate=0.02,
                serving_crash_rate=0.01,
                serving_straggler_rate=0.02,
            ),
            adversary=AdversaryPlane(fraction=0.125),
            partition=PartitionPlane(
                fraction=0.3, mean_width=6.0, crash_rate=0.02
            ),
        )
        out = run_scenario(sc)
        assert out.ok, out.failures
        assert out.report["detection"]["false_quarantines"] == []
        assert out.report["detection"]["precision"] == 1.0


#: The presets that replaced the single-plane campaign commands.
CAMPAIGN_PRESETS = (
    "chaos", "adversary-25", "adversary-40", "serve", "serve-drift",
    "shard-0", "shard-25", "shard-50",
)


@pytest.fixture(scope="module")
def preset_outcomes():
    return {name: run_scenario(CATALOG[name]) for name in CAMPAIGN_PRESETS}


class TestCampaignPresets:
    @pytest.mark.parametrize("name", CAMPAIGN_PRESETS)
    def test_passes_its_gates_at_its_seed(self, name, preset_outcomes):
        out = preset_outcomes[name]
        assert out.ok, out.failures
        assert out.report["placement"]["feasible"]
        assert out.report["detection"]["false_quarantines"] == []

    @pytest.mark.parametrize("name", CAMPAIGN_PRESETS)
    def test_its_plane_fired(self, name, preset_outcomes):
        r = preset_outcomes[name].report
        sc = CATALOG[name]
        if name == "chaos":
            assert r["placement"]["central_crashes"] >= 1
            assert r["placement"]["central_recoveries"] >= 1
        elif name.startswith("adversary"):
            assert r["detection"]["injected"] > 0
        elif name == "serve":
            assert r["planes"]["serving_faults"]
            assert r["serving"]["failovers"] > 0
        elif name == "serve-drift":
            assert r["serving"]["reauctions"] >= 1
        elif sc.partition.fraction > 0:
            assert r["placement"]["windows"] >= 1

    def test_schedules_cover_the_runs(self):
        # Chaos: no longer than the fault-free run, so every central
        # crash it schedules lands inside the run.
        chaos = CATALOG["chaos"]
        ref = SemiDistributedSimulator().run(materialize(chaos).instance)
        assert chaos.horizon <= ref.extra["protocol_rounds"]
        # Shard: the healthy sharded run's length.
        shard = CATALOG["shard-25"]
        mat = materialize(shard)
        healthy = ShardedAGTRam(
            n_regions=shard.regions, seed=mat.shard_seed
        ).run(mat.instance)
        assert shard.horizon == healthy.rounds

    def test_only_flat_gates_run_the_flat_reference(self, preset_outcomes):
        assert preset_outcomes["serve"].report["vs_flat"] is None
        assert run_scenario(CATALOG["smoke"]).report["vs_flat"] is None
        assert preset_outcomes["chaos"].report["vs_flat"] is not None

    def test_no_serving_phase_without_requests(self, preset_outcomes):
        out = preset_outcomes["adversary-25"]
        assert out.report["serving"] is None
        assert out.split == len(out.events)


class TestLiveAudits:
    """The report's ``audits`` block is the offline verdict on the
    exported log: the monitor runs the same audits live."""

    @pytest.mark.parametrize("name", list(CATALOG))
    def test_preset_matches_offline_audit_of_its_log(self, name, tmp_path):
        sc = CATALOG[name]
        out = run_scenario(sc)
        path = write_events_binary(out.monitor.iter_events(), tmp_path / "log.rev")
        records = list(open_record_stream(path))
        split = next(
            (i for i, r in enumerate(records) if isinstance(r, ev.ServeStart)),
            len(records),
        )
        mechanism = audit_events if sc.regions == 1 else audit_sharded_events
        offline = (
            mechanism(records[:split]),
            audit_serving_events(records[split:]),
            audit_events(records[split:]),
        )
        assert pickle.dumps(out.monitor.finish()) == pickle.dumps(offline)
        mech, serving, reauctions = offline
        assert out.report["audits"] == {
            "mechanism_ok": mech.ok,
            "mechanism_violations": [str(v) for v in mech.violations],
            "serving_ok": serving.ok,
            "serving_violations": [str(v) for v in serving.violations],
            "reauction_ok": reauctions.ok,
            "reauction_violations": [str(v) for v in reauctions.violations],
        }


class TestFlatCentral:
    @pytest.mark.parametrize("name", ["chaos", "adversary-40", "serve"])
    def test_mechanism_segment_is_the_simulator_run(self, name):
        """A one-region scenario's mechanism phase is exactly the flat
        simulator on the same materialized plans, event for event."""
        sc = CATALOG[name]
        out = run_scenario(sc)
        mat = materialize(sc)
        sink = ev.ColumnarSink()
        with ev.logical_time(), ev.capture(sink):
            ref = SemiDistributedSimulator(
                faults=mat.fault_plan,
                adversary=mat.adversary,
                quarantine=mat.quarantine,
            ).run(mat.instance)
        # Compared as serialized bytes: garbage bids carry NaN values.
        mech = out.events[: out.split]
        assert len(mech) == len(sink)
        assert _stream_sha256(mech) == _stream_sha256(sink.iter_events())
        assert out.report["placement"]["otc"] == ref.otc


class TestFlatOnlyKnobs:
    @pytest.mark.parametrize(
        "knob", ["central_crash_rate", "drop", "delay", "duplicate"]
    )
    def test_sharded_scenario_rejects_flat_only_knobs(self, knob):
        plane = FaultPlane(crash_rate=0.02, **{knob: 0.05})
        with pytest.raises(ConfigurationError, match=knob):
            Scenario(regions=4, faults=plane)
        # The flat central reads it.
        Scenario(regions=1, faults=plane)

    def test_flat_scenario_rejects_a_partition_plane(self):
        with pytest.raises(ConfigurationError, match="partition"):
            Scenario(regions=1, partition=PartitionPlane(fraction=0.3))

    def test_serving_gates_need_a_serving_phase(self):
        with pytest.raises(ConfigurationError):
            Scenario(n_requests=0, min_availability=0.9)
        with pytest.raises(ConfigurationError):
            Scenario(n_requests=0, max_p99=10.0)
        with pytest.raises(ConfigurationError):
            Scenario(n_requests=-1)

    def test_unknown_behavior_rejected(self):
        with pytest.raises(ConfigurationError, match="bribe"):
            AdversaryPlane(behaviors=("bribe",))

    def test_lottery_tickets_run_the_sharded_central(self):
        for seed in range(20):
            sc = Scenario.random(seed)
            assert sc.regions > 1
            if sc.faults is not None:
                assert sc.faults.central_crash_rate == 0.0

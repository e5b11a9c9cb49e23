"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main

FAST = ["--servers", "12", "--objects", "40", "--requests", "4000", "--seed", "3"]


class TestGenerate:
    def test_writes_instance(self, tmp_path, capsys):
        out = tmp_path / "inst.npz"
        rc = main(["generate", *FAST, "-o", str(out)])
        assert rc == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_roundtrip_through_run(self, tmp_path, capsys):
        out = tmp_path / "inst.npz"
        main(["generate", *FAST, "-o", str(out)])
        rc = main(["run", "--instance", str(out), "-a", "AGT-RAM"])
        assert rc == 0
        assert "AGT-RAM" in capsys.readouterr().out


class TestRun:
    def test_default_algorithm(self, capsys):
        rc = main(["run", *FAST])
        assert rc == 0
        out = capsys.readouterr().out
        assert "savings" in out

    def test_save_result(self, tmp_path, capsys):
        rc = main(["run", *FAST, "-o", str(tmp_path / "res")])
        assert rc == 0
        assert (tmp_path / "res.json").exists()
        assert (tmp_path / "res.npz").exists()

    @pytest.mark.parametrize("alg", ["Greedy", "DA"])
    def test_other_algorithms(self, alg, capsys):
        rc = main(["run", *FAST, "-a", alg])
        assert rc == 0
        assert alg in capsys.readouterr().out

    def test_engine_reported(self, capsys):
        rc = main(["run", *FAST, "-a", "AGT-RAM"])
        assert rc == 0
        assert "engine vectorized" in capsys.readouterr().out

    def test_engines_agree_on_otc(self, tmp_path, capsys):
        # `repro run` prints the reference engine's OTC.
        from repro.core.agt_ram import run_agt_ram
        from repro.io import load_instance

        path = tmp_path / "inst.npz"
        main(["generate", *FAST, "-o", str(path)])
        main(["run", "--instance", str(path)])
        reference = run_agt_ram(load_instance(path), engine="naive")
        assert f"OTC {reference.otc:,.0f}  " in capsys.readouterr().out

    def test_bad_engine_rejected(self):
        # The engine is no longer an option of `repro run`.
        for name in ("turbo", "naive"):
            with pytest.raises(SystemExit) as exc:
                main(["run", *FAST, "--engine", name])
            assert exc.value.code == 2


class TestAuditCompareEngines:
    def test_identity_check_passes(self, capsys):
        rc = main(["audit", "--compare-engines", "--scale", "tiny",
                   "--repeats", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "identity : OK" in out
        assert "audit    : OK" in out
        assert "speedup" in out

    def test_impossible_speedup_gate_fails(self, capsys):
        rc = main(["audit", "--compare-engines", "--scale", "tiny",
                   "--repeats", "1", "--min-speedup", "1000000",
                   "--retries", "0"])
        assert rc == 1
        assert "below required" in capsys.readouterr().err

    def test_speedup_gate_retries_before_failing(self, capsys):
        rc = main(["audit", "--compare-engines", "--scale", "tiny",
                   "--repeats", "1", "--min-speedup", "1000000",
                   "--retries", "2"])
        assert rc == 1
        assert capsys.readouterr().err.count("re-measuring") == 2

    def test_no_log_and_no_compare_is_usage_error(self, capsys):
        rc = main(["audit"])
        assert rc == 2
        assert "provide an event log" in capsys.readouterr().err


class TestCompare:
    def test_subset(self, capsys):
        rc = main(["compare", *FAST, "--algorithms", "AGT-RAM", "Greedy"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "AGT-RAM" in out and "Greedy" in out


class TestSweep:
    def test_capacity_sweep(self, capsys):
        rc = main(
            ["sweep", *FAST, "--param", "capacity", "--values", "0.1", "0.3",
             "--algorithms", "AGT-RAM", "--no-chart"]
        )
        assert rc == 0
        assert "capacity" in capsys.readouterr().out

    def test_rw_sweep_with_chart(self, capsys):
        rc = main(
            ["sweep", *FAST, "--param", "rw", "--values", "0.6", "0.95",
             "--algorithms", "AGT-RAM", "Greedy"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "o = AGT-RAM" in out  # chart legend


class TestAxioms:
    def test_all_pass(self, capsys):
        rc = main(["axioms", *FAST])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "-a", "Magic"])


class TestReproduce:
    def test_fig3_only(self, capsys):
        rc = main(["reproduce", "--scale", "tiny", "--targets", "fig3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "AGT-RAM" in out

    def test_tables(self, capsys):
        rc = main(["reproduce", "--scale", "tiny", "--targets", "table2"])
        assert rc == 0
        assert "Table 2" in capsys.readouterr().out

    def test_bad_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "--targets", "fig9"])


class TestSweepCsv:
    def test_csv_written(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = main(
            ["sweep", *FAST, "--param", "capacity", "--values", "0.2",
             "--algorithms", "AGT-RAM", "--no-chart", "--csv", str(out)]
        )
        assert rc == 0
        assert out.exists()
        text = out.read_text()
        assert "AGT-RAM" in text and "savings_percent" in text


def _campaign(tmp_path, *scenarios, extra=()):
    """Run the campaign driver on presets/files, artifacts in tmp_path."""
    argv = ["resilience", "--out-dir", str(tmp_path)]
    for sc in scenarios:
        argv += ["--scenario", str(sc)]
    return main([*argv, *extra])


def _scenario_file(tmp_path, name, **changes):
    """A catalog preset with ``changes`` applied, written as JSON."""
    import dataclasses
    import json

    from repro.runtime.scenario import CATALOG

    sc = dataclasses.replace(CATALOG[name], **changes)
    path = tmp_path / f"{name}-edited.json"
    path.write_text(json.dumps(sc.to_dict()))
    return path


def _edited_dict_file(tmp_path, name, edit):
    """A catalog preset's JSON with ``edit`` applied to the raw dict."""
    import json

    from repro.runtime.scenario import CATALOG

    d = CATALOG[name].to_dict()
    edit(d)
    path = tmp_path / f"{name}-raw.json"
    path.write_text(json.dumps(d))
    return path


class TestChaos:
    def test_campaign_writes_artifacts_and_passes(self, tmp_path, capsys):
        import json

        from repro.runtime.scenario import CATALOG, Scenario, materialize

        rc = _campaign(
            tmp_path, "chaos",
            extra=["--report", "report.json", "--events", "events.jsonl"],
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "resilience campaign" in out and "verdict: PASS" in out
        (run,) = json.loads((tmp_path / "report.json").read_text())["runs"]
        assert run["ok"] and run["placement"]["feasible"]
        assert run["audits"]["mechanism_ok"]
        assert 0 < run["vs_flat"]["otc_degradation"] <= 1.05
        # Retransmissions over the lossy channel cost messages.
        assert run["vs_flat"]["message_reduction"] < 1.0
        # The report's scenario dict is the fault log: it materializes
        # to the very plan the run used.
        again = materialize(Scenario.from_dict(run["scenario"]))
        assert again.fault_plan == materialize(CATALOG["chaos"]).fault_plan
        # The recorded log passes the offline audit CLI too.
        assert main(["audit", str(tmp_path / "events.jsonl")]) == 0

    def test_same_fault_seed_same_event_log(self, tmp_path, capsys):
        logs = []
        for name in ("a.jsonl", "b.jsonl"):
            assert _campaign(tmp_path, "chaos", extra=["--events", name]) == 0
            logs.append((tmp_path / name).read_bytes())
        capsys.readouterr()
        assert logs[0] == logs[1]

    def test_degradation_gate_fails(self, tmp_path, capsys):
        # An impossible bound (chaos OTC can never be 0.5x the clean
        # OTC on the same instance) must trip the gate.
        path = _scenario_file(tmp_path, "chaos", max_degradation=0.5)
        rc = _campaign(tmp_path, path, extra=["--no-shrink"])
        assert rc == 1
        assert "OTC degradation" in capsys.readouterr().err


class TestAdversary:
    def test_campaign_writes_artifacts_and_passes(self, tmp_path, capsys):
        import json

        rc = _campaign(
            tmp_path, "adversary-25", "adversary-40",
            extra=["--report", "report.json", "--events", "events.jsonl"],
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["ok"] and not doc["failures"]
        assert len(doc["runs"]) == 2
        for run in doc["runs"]:
            assert run["placement"]["feasible"] and run["audits"]["mechanism_ok"]
            assert run["detection"]["recall"] >= 0.95
            assert run["detection"]["false_quarantines"] == []
            assert run["detection"]["injected"] > 0
            # Each swept fraction's log is exported and audits offline.
            log = tmp_path / f"events.{run['scenario']['name']}.jsonl"
            assert main(["audit", str(log)]) == 0
        capsys.readouterr()

    def test_same_adv_seed_same_report(self, tmp_path, capsys):
        docs = []
        for name in ("a.json", "b.json"):
            assert _campaign(
                tmp_path, "adversary-25", extra=["--report", name]
            ) == 0
            docs.append((tmp_path / name).read_bytes())
        capsys.readouterr()
        assert docs[0] == docs[1]

    def test_impossible_recall_gate_fails(self, tmp_path, capsys):
        path = _scenario_file(tmp_path, "adversary-25", min_recall=1.1)
        rc = _campaign(tmp_path, path, extra=["--no-shrink"])
        capsys.readouterr()
        assert rc == 1

    def test_unknown_behavior_rejected(self, tmp_path, capsys):
        def edit(d):
            d["adversary"]["behaviors"] = ["bribe"]

        rc = _campaign(tmp_path, _edited_dict_file(tmp_path, "adversary-25", edit))
        assert rc == 2
        assert "unknown adversary behavior" in capsys.readouterr().err


class TestServe:
    def test_campaign_writes_artifacts_and_passes(self, tmp_path, capsys):
        import json

        rc = _campaign(
            tmp_path, "serve",
            extra=["--report", "report.json", "--events", "events.jsonl"],
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["ok"] and not doc["failures"]
        (run,) = doc["runs"]
        audits = run["audits"]
        assert audits["serving_ok"] and audits["mechanism_ok"]
        serving = run["serving"]
        assert serving["availability"] >= 0.99 and serving["p99"] <= 150
        assert serving["served"] + serving["failed"] + serving["shed"] == 4000
        # The recorded log passes the offline audit CLI too.
        assert main(["audit", str(tmp_path / "events.jsonl")]) == 0

    def test_same_seed_byte_identical_artifacts(self, tmp_path, capsys):
        artifacts = []
        for name in ("a", "b"):
            rc = _campaign(
                tmp_path, "serve",
                extra=["--report", f"{name}.json", "--events", f"{name}.jsonl"],
            )
            assert rc == 0
            artifacts.append(
                (tmp_path / f"{name}.json").read_bytes()
                + (tmp_path / f"{name}.jsonl").read_bytes()
            )
        capsys.readouterr()
        assert artifacts[0] == artifacts[1]

    def test_drift_workload_reauctions(self, tmp_path, capsys):
        import json

        rc = _campaign(tmp_path, "serve-drift", extra=["--report", "r.json"])
        assert rc == 0
        capsys.readouterr()
        (run,) = json.loads((tmp_path / "r.json").read_text())["runs"]
        assert run["serving"]["reauctions"] >= 1
        assert run["audits"]["serving_ok"] and run["audits"]["reauction_ok"]

    def test_availability_gate_fails(self, tmp_path, capsys):
        path = _scenario_file(tmp_path, "serve", min_availability=1.01)
        rc = _campaign(tmp_path, path, extra=["--no-shrink"])
        out = capsys.readouterr()
        assert rc == 1
        assert "verdict: FAIL" in out.out

    def test_unknown_workload_rejected(self, tmp_path, capsys):
        def edit(d):
            d["workload"] = "nope"

        rc = _campaign(tmp_path, _edited_dict_file(tmp_path, "serve", edit))
        assert rc == 2
        assert "unknown workload" in capsys.readouterr().err


class TestShard:
    def test_campaign_writes_artifacts_and_passes(self, tmp_path, capsys):
        import json

        rc = _campaign(
            tmp_path, "shard-0", "shard-25", "shard-50",
            extra=["--report", "report.json", "--events", "events.jsonl"],
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["ok"] and not doc["failures"]
        for run in doc["runs"]:
            # The headline claim: the sharded protocol at least halves
            # the single-central message traffic.
            assert run["vs_flat"]["message_reduction"] >= 2.0
            assert run["vs_flat"]["otc_degradation"] <= 1.0
            assert run["placement"]["feasible"]
            assert run["audits"]["mechanism_ok"]
        # The recorded region-tagged log passes the sharded audit CLI.
        log = tmp_path / "events.shard-25.jsonl"
        assert main(["audit", "--sharded", str(log)]) == 0
        capsys.readouterr()

    def test_same_seeds_byte_identical_artifacts(self, tmp_path, capsys):
        artifacts = []
        for name in ("a", "b"):
            rc = _campaign(
                tmp_path, "shard-25",
                extra=["--report", f"{name}.json", "--events", f"{name}.jsonl"],
            )
            assert rc == 0
            artifacts.append(
                (tmp_path / f"{name}.json").read_bytes()
                + (tmp_path / f"{name}.jsonl").read_bytes()
            )
        capsys.readouterr()
        assert artifacts[0] == artifacts[1]

    def test_plan_file_round_trip(self, tmp_path, capsys):
        import json

        assert _campaign(tmp_path, "shard-50", extra=["--report", "a.json"]) == 0
        (run,) = json.loads((tmp_path / "a.json").read_text())["runs"]
        # The report's scenario dict reruns as a scenario file.
        plan_file = tmp_path / "one.json"
        plan_file.write_text(json.dumps(run["scenario"]))
        assert _campaign(tmp_path, plan_file, extra=["--report", "b.json"]) == 0
        capsys.readouterr()
        (again,) = json.loads((tmp_path / "b.json").read_text())["runs"]
        assert again == run

    def test_message_reduction_gate_fails(self, tmp_path, capsys):
        # No protocol change can cut traffic 100x on this instance.
        path = _scenario_file(tmp_path, "shard-0", min_message_reduction=100)
        rc = _campaign(tmp_path, path, extra=["--no-shrink"])
        out = capsys.readouterr()
        assert rc == 1
        assert "verdict: FAIL" in out.out


class TestResilience:
    def test_smoke_scenario_passes_and_writes_report(self, tmp_path, capsys):
        import json

        rc = main(
            ["resilience", "--scenario", "smoke",
             "--out-dir", str(tmp_path), "--report", "r.json"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "resilience campaign" in out and "verdict: PASS" in out
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["kind"] == "repro-resilience"
        assert doc["ok"] and not doc["failures"]
        (run,) = doc["runs"]
        assert run["scenario"]["name"] == "smoke"
        assert run["invariants"]["violations"] == 0
        assert run["audits"]["mechanism_ok"]

    def test_lottery_is_deterministic(self, tmp_path, capsys):
        docs = []
        for name in ("a.json", "b.json"):
            rc = main(
                ["resilience", "--scenario", "smoke",
                 "--lottery", "1", "--lottery-seed", "4",
                 "--no-shrink", "--out-dir", str(tmp_path),
                 "--report", name]
            )
            capsys.readouterr()
            docs.append((tmp_path / name).read_bytes())
        assert docs[0] == docs[1]

    def test_failing_scenario_shrinks_to_a_repro_file(
        self, tmp_path, capsys, monkeypatch
    ):
        import dataclasses
        import json

        from repro.runtime import scenario as sc_mod

        broken = dataclasses.replace(
            sc_mod.CATALOG["smoke"], name="broken", min_availability=1.01
        )
        monkeypatch.setattr(sc_mod, "CATALOG", {"broken": broken})
        rc = main(
            ["resilience", "--scenario", "broken",
             "--out-dir", str(tmp_path), "--report", "r.json"]
        )
        out = capsys.readouterr()
        assert rc == 1
        assert "verdict: FAIL" in out.out
        assert "shrunk broken" in out.out
        repro_file = tmp_path / "broken_scenario.json"
        mini = sc_mod.Scenario.from_dict(
            json.loads(repro_file.read_text())
        )
        assert mini.name == "broken-shrunk"
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["runs"][0]["shrunk_scenario"]["name"] == "broken-shrunk"

    def test_unknown_scenario_rejected(self, capsys):
        rc = main(["resilience", "--scenario", "nope"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown scenario" in err

    def test_event_export_passes_sharded_audit(self, tmp_path, capsys):
        rc = main(
            ["resilience", "--scenario", "smoke",
             "--out-dir", str(tmp_path), "--events", "ev.jsonl"]
        )
        assert rc == 0
        capsys.readouterr()
        # The exported composed log replays through the audit CLI.
        assert main(
            ["audit", "--sharded", str(tmp_path / "ev.jsonl")]
        ) == 0
        capsys.readouterr()

    def test_every_scenario_log_is_exported_and_audits(self, tmp_path, capsys):
        rc = _campaign(
            tmp_path, "smoke", "byzantine", "chaos",
            extra=["--events", "ev.jsonl", "--events-binary", "ev.rev"],
        )
        assert rc == 0
        assert not (tmp_path / "ev.jsonl").exists()
        for name, audit_flags in (
            ("smoke", ["--sharded"]),
            ("byzantine", ["--sharded"]),
            ("chaos", []),
        ):
            for suffix in ("jsonl", "rev"):
                log = tmp_path / f"ev.{name}.{suffix}"
                assert main(["audit", *audit_flags, str(log)]) == 0, log
        capsys.readouterr()

    def test_shrunk_scenario_file_reruns_to_the_same_failure(
        self, tmp_path, capsys
    ):
        import json

        path = _scenario_file(tmp_path, "smoke", min_availability=1.01)
        assert _campaign(tmp_path, path, extra=["--report", "a.json"]) == 1
        (first,) = json.loads((tmp_path / "a.json").read_text())["runs"]
        shrunk = tmp_path / "smoke_scenario.json"
        assert json.loads(shrunk.read_text()) == first["shrunk_scenario"]
        rc = _campaign(
            tmp_path, shrunk, extra=["--no-shrink", "--report", "b.json"]
        )
        assert rc == 1
        capsys.readouterr()
        (again,) = json.loads((tmp_path / "b.json").read_text())["runs"]
        assert again["scenario"]["name"] == "smoke-shrunk"
        assert again["failures"] == first["failures"]

    def test_metrics_out_is_not_a_campaign_flag(self, capsys):
        # The driver writes no OpenMetrics snapshot, so it takes no path
        # for one.
        with pytest.raises(SystemExit):
            main(["resilience", "--metrics-out", "m.prom"])
        capsys.readouterr()


class TestOutDirRouting:
    def test_relative_artifacts_land_in_out_dir(self, tmp_path, capsys):
        out = tmp_path / "nested" / "artifacts"
        rc = main(
            ["resilience", "--scenario", "chaos", "--out-dir", str(out),
             "--report", "report.json", "--events", "events.jsonl"]
        )
        capsys.readouterr()
        assert rc == 0
        assert (out / "report.json").exists()
        assert (out / "events.jsonl").exists()

    def test_absolute_paths_are_untouched(self, tmp_path, capsys):
        report = tmp_path / "abs_report.json"
        rc = main(
            ["resilience", "--scenario", "chaos",
             "--out-dir", str(tmp_path / "ignored"), "--report", str(report)]
        )
        capsys.readouterr()
        assert rc == 0
        assert report.exists()
        assert not (tmp_path / "ignored" / "abs_report.json").exists()

"""Tests for the machine-readable perf harness (repro.obs.report + CLI)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.cli import main
from repro.obs.report import (
    BENCH_SCALE_CONFIGS,
    SCHEMA_VERSION,
    bench_config,
    bench_scale,
    compare_documents,
    format_comparison,
    load_document,
    run_bench,
    validate_document,
    write_document,
)


@pytest.fixture(scope="module")
def tiny_doc():
    """One real bench document at the tiny scale (shared, read-only)."""
    return run_bench(
        scale="tiny",
        algorithms=["AGT-RAM", "Greedy", "Ae-Star"],
        repeats=1,
    )


class TestBenchConfig:
    def test_scales_exist(self):
        assert set(BENCH_SCALE_CONFIGS) == {"tiny", "small", "medium", "large"}

    def test_bench_config_rejects_unknown(self):
        with pytest.raises(ValueError):
            bench_config("galactic")

    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        assert bench_scale() == "tiny"
        monkeypatch.setenv("REPRO_BENCH_SCALE", "nope")
        with pytest.raises(ValueError):
            bench_scale()

    def test_matches_pytest_benchmark_presets(self, monkeypatch):
        # benchmarks/_config.py imports these; drift would silently split
        # the two harnesses onto different instances.
        cfg = bench_config("tiny")
        assert (cfg.n_servers, cfg.n_objects, cfg.seed) == (16, 64, 2007)


class TestRunBench:
    def test_document_is_valid_and_complete(self, tiny_doc):
        validate_document(tiny_doc)
        assert tiny_doc["schema_version"] == SCHEMA_VERSION
        algorithms = {r["algorithm"] for r in tiny_doc["results"]}
        assert {"AGT-RAM", "Greedy", "Ae-Star", "AGT-RAM(simulated)"} <= algorithms

    def test_agt_ram_record_has_phase_spans(self, tiny_doc):
        (record,) = [
            r
            for r in tiny_doc["results"]
            if r["algorithm"] == "AGT-RAM" and r["scenario"] == "placement"
        ]
        # Through the ReplicaPlacer adapter the mechanism spans nest under
        # baseline/AGT-RAM/, so match on the path suffix.
        for phase in ("engine_init", "clear"):
            suffix = f"mechanism/AGT-RAM/{phase}"
            assert any(
                p.endswith(suffix) for p in record["spans"]
            ), f"missing phase span *{suffix}"
        assert not any("/round/" in p for p in record["spans"])
        (rounds,) = [
            n
            for p, n in record["counters"].items()
            if p.endswith("mechanism/AGT-RAM/rounds")
        ]
        assert rounds == record["rounds"]

    def test_baseline_records_have_spans(self, tiny_doc):
        for name in ("Greedy", "Ae-Star"):
            (record,) = [
                r for r in tiny_doc["results"] if r["algorithm"] == name
            ]
            assert record["spans"], f"{name} has no spans"
            assert any(p.startswith(f"baseline/{name}") for p in record["spans"])

    def test_protocol_record_has_message_accounting(self, tiny_doc):
        (record,) = [
            r for r in tiny_doc["results"] if r["scenario"] == "protocol"
        ]
        assert record["messages"] > 0
        assert record["bytes"] > 0
        assert "simulator/run" in record["spans"]

    def test_agt_ram_record_has_round_series(self, tiny_doc):
        (record,) = [
            r
            for r in tiny_doc["results"]
            if r["algorithm"] == "AGT-RAM" and r["scenario"] == "placement"
        ]
        series = record["series"]
        n = record["rounds"]
        for key in ("otc", "best_bid", "payment", "n_bids"):
            assert len(series[key]) == n, f"series[{key}] != rounds"
        # OTC trajectory is non-increasing (every commit lowers the OTC).
        assert all(a >= b for a, b in zip(series["otc"], series["otc"][1:]))

    def test_protocol_record_has_protocol_series(self, tiny_doc):
        (record,) = [
            r for r in tiny_doc["results"] if r["scenario"] == "protocol"
        ]
        series = record["series"]
        n = record["rounds"]
        assert len(series["messages"]) == n
        assert len(series["bytes"]) == n
        # Work is recorded per bid sweep, including the terminating one.
        assert len(series["parallel_round_work"]) == n + 1
        assert len(series["serial_round_work"]) == n + 1
        assert sum(series["messages"]) <= record["messages"]

    def test_rejects_bad_series(self, tiny_doc):
        doc = copy.deepcopy(tiny_doc)
        doc["results"][0]["series"] = {"otc": "not-a-list"}
        with pytest.raises(ValueError, match="series"):
            validate_document(doc)

    def test_v1_document_without_series_still_validates(self, tiny_doc):
        doc = copy.deepcopy(tiny_doc)
        doc["schema_version"] = 1
        for record in doc["results"]:
            record.pop("series", None)
        validate_document(doc)

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            run_bench(scale="tiny", repeats=0)

    def test_roundtrip_through_disk(self, tiny_doc, tmp_path):
        path = write_document(tiny_doc, tmp_path / "b.json")
        assert load_document(path) == json.loads(json.dumps(tiny_doc))


class TestValidate:
    def test_rejects_non_document(self):
        with pytest.raises(ValueError):
            validate_document(["not", "a", "doc"])
        with pytest.raises(ValueError):
            validate_document({"kind": "something-else", "schema_version": 1})

    def test_rejects_future_schema(self, tiny_doc):
        doc = copy.deepcopy(tiny_doc)
        doc["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="newer than supported"):
            validate_document(doc)

    def test_rejects_malformed_results(self, tiny_doc):
        doc = copy.deepcopy(tiny_doc)
        del doc["results"][0]["wall_s"]
        with pytest.raises(ValueError, match="missing required key"):
            validate_document(doc)


class TestCompare:
    def test_flags_injected_20pct_slowdown(self, tiny_doc):
        slowed = copy.deepcopy(tiny_doc)
        for record in slowed["results"]:
            if record["algorithm"] == "AGT-RAM":
                record["wall_s"] *= 1.20
        cmp = compare_documents(tiny_doc, slowed, time_tolerance=0.15)
        flagged = {e["key"] for e in cmp["regressions"]}
        assert "placement/AGT-RAM" in flagged
        (entry,) = [
            e for e in cmp["regressions"] if e["key"] == "placement/AGT-RAM"
        ]
        assert entry["metric"] == "wall_s"
        assert entry["ratio"] == pytest.approx(1.20)
        assert "REGRESSION" in format_comparison(cmp)

    def test_identical_documents_are_clean(self, tiny_doc):
        cmp = compare_documents(tiny_doc, tiny_doc)
        assert cmp["regressions"] == []
        assert cmp["improvements"] == []

    def test_within_tolerance_not_flagged(self, tiny_doc):
        slowed = copy.deepcopy(tiny_doc)
        for record in slowed["results"]:
            record["wall_s"] *= 1.10
        cmp = compare_documents(tiny_doc, slowed, time_tolerance=0.15)
        assert cmp["regressions"] == []

    def test_speedup_reported_as_improvement(self, tiny_doc):
        faster = copy.deepcopy(tiny_doc)
        for record in faster["results"]:
            record["wall_s"] *= 0.5
        cmp = compare_documents(tiny_doc, faster, time_tolerance=0.15)
        assert cmp["regressions"] == []
        assert len(cmp["improvements"]) == len(tiny_doc["results"])

    def test_quality_drop_flagged(self, tiny_doc):
        worse = copy.deepcopy(tiny_doc)
        for record in worse["results"]:
            if record["algorithm"] == "Greedy":
                record["savings_percent"] -= 5.0
        cmp = compare_documents(tiny_doc, worse, quality_tolerance=1.0)
        assert any(
            e["metric"] == "savings_percent" and e["key"] == "placement/Greedy"
            for e in cmp["regressions"]
        )

    def test_disjoint_scenarios_reported_not_flagged(self, tiny_doc):
        pruned = copy.deepcopy(tiny_doc)
        dropped = pruned["results"].pop()
        cmp = compare_documents(tiny_doc, pruned)
        label = f"{dropped['scenario']}/{dropped['algorithm']}"
        assert label in cmp["only_in_old"]
        assert cmp["regressions"] == []

    def test_rejects_negative_tolerance(self, tiny_doc):
        with pytest.raises(ValueError):
            compare_documents(tiny_doc, tiny_doc, time_tolerance=-0.1)


class TestCli:
    def test_bench_writes_document(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = main(
            [
                "bench",
                "--scale",
                "tiny",
                "--repeats",
                "1",
                "--algorithms",
                "AGT-RAM",
                "Greedy",
                "--no-protocol",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = load_document(out)
        assert {r["algorithm"] for r in doc["results"]} == {"AGT-RAM", "Greedy"}
        assert "wrote bench document" in capsys.readouterr().out

    def test_compare_warn_only_by_default(self, tiny_doc, tmp_path, capsys):
        old = write_document(tiny_doc, tmp_path / "old.json")
        slowed = copy.deepcopy(tiny_doc)
        for record in slowed["results"]:
            record["wall_s"] *= 1.5
        new = write_document(slowed, tmp_path / "new.json")

        rc = main(["bench", "--compare", str(old), str(new)])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "REGRESSION" in captured
        assert "warn-only" in captured

        rc = main(
            ["bench", "--compare", str(old), str(new), "--fail-on-regression"]
        )
        assert rc == 1

    def test_compare_clean_exits_zero(self, tiny_doc, tmp_path):
        old = write_document(tiny_doc, tmp_path / "old.json")
        rc = main(
            ["bench", "--compare", str(old), str(old), "--fail-on-regression"]
        )
        assert rc == 0


class TestEngineCompareRecord:
    def test_record_present_and_identical(self, tiny_doc):
        (record,) = [
            r for r in tiny_doc["results"] if r["scenario"] == "engine_compare"
        ]
        assert record["identical"] is True
        assert record["audit_ok"] is True
        assert record["mismatches"] == []
        assert record["speedup"] > 0
        assert record["naive_wall_s"] > 0
        assert record["wall_s"] > 0  # the vectorized wall

    def test_config_records_no_engine(self, tiny_doc):
        # Every scenario runs the one production engine.
        assert "engine" not in tiny_doc["config"]

    def test_opt_out_and_engine_override(self):
        doc = run_bench(
            scale="tiny",
            algorithms=["AGT-RAM"],
            repeats=1,
            include_protocol=False,
            include_engine_compare=False,
        )
        assert [r["scenario"] for r in doc["results"]] == ["placement"]
        # No engine override: every scenario runs the production engine.
        with pytest.raises(TypeError, match="engine"):
            run_bench(scale="tiny", engine="naive")

    def test_skipped_without_agt_ram(self):
        doc = run_bench(
            scale="tiny",
            algorithms=["Greedy"],
            repeats=1,
            include_protocol=False,
        )
        assert not any(
            r["scenario"] == "engine_compare" for r in doc["results"]
        )

    def test_old_baseline_without_record_compares_clean(self, tiny_doc):
        old = copy.deepcopy(tiny_doc)
        old["results"] = [
            r for r in old["results"] if r["scenario"] != "engine_compare"
        ]
        cmp = compare_documents(old, tiny_doc)
        assert cmp["regressions"] == []
        assert cmp["only_in_new"] == ["engine_compare/AGT-RAM"]

    def test_cli_engine_flag(self, tmp_path):
        # The engine is no longer an option of `repro bench`.
        out = tmp_path / "bench.json"
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "bench",
                    "--scale",
                    "tiny",
                    "--algorithms",
                    "AGT-RAM",
                    "--engine",
                    "naive",
                    "--out",
                    str(out),
                ]
            )
        assert exc.value.code == 2
        assert not out.exists()

    def test_cli_prints_engine_compare_line(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = main(
            [
                "bench",
                "--scale",
                "tiny",
                "--repeats",
                "1",
                "--algorithms",
                "AGT-RAM",
                "--no-protocol",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert "engine compare:" in capsys.readouterr().out

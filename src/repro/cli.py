"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
generate   build a DRP instance from knobs and save it to .npz
run        run one placement algorithm on an instance (file or knobs)
compare    run several algorithms and print the comparison table
sweep      capacity or R/W sweep, printed as table + ASCII chart
axioms     run AGT-RAM with an audit and verify the six axioms
bench      machine-readable perf harness (BENCH_*.json + regression diff)
audit      offline axiom verification of a recorded event log (and of
           a scenario log's serving tail)
resilience the campaign driver: run catalog presets, lottery draws or
           scenario JSON files, gate them, shrink failures

``run``, ``bench`` and ``resilience`` accept ``--events`` (JSONL event
log), ``--events-binary`` (REVB) and ``--chrome-trace`` (Perfetto-loadable
trace) to export the observability stream; ``run`` and ``bench`` also
take ``--metrics-out`` (OpenMetrics textfile).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.agt_ram import run_agt_ram
from repro.core.axioms import verify_axioms
from repro.drp.instance import DRPInstance
from repro.experiments.config import ExperimentConfig
from repro.experiments.instances import paper_instance
from repro.experiments.runner import PAPER_ALGORITHMS, run_algorithms
from repro.experiments.report import format_series
from repro.experiments.sweeps import capacity_sweep, rw_ratio_sweep
from repro.io import load_instance, save_instance, save_result
from repro.obs.report import BENCH_SCALE_CONFIGS
from repro.utils.ascii_chart import ascii_chart
from repro.utils.tables import render_table


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", help="load a saved instance (.npz) instead of generating")
    p.add_argument("--servers", type=int, default=40, help="M (default 40)")
    p.add_argument("--objects", type=int, default=160, help="N (default 160)")
    p.add_argument("--requests", type=int, default=30_000)
    p.add_argument("--rw-ratio", type=float, default=0.9, dest="rw_ratio")
    p.add_argument(
        "--capacity", type=float, default=0.3, help="C%% as a fraction (default 0.3)"
    )
    p.add_argument(
        "--topology",
        default="random",
        choices=["random", "waxman", "powerlaw", "transit-stub"],
    )
    p.add_argument("--seed", type=int, default=0)


def _instance_from_args(args: argparse.Namespace) -> DRPInstance:
    if getattr(args, "instance", None):
        return load_instance(args.instance)
    cfg = ExperimentConfig(
        n_servers=args.servers,
        n_objects=args.objects,
        total_requests=args.requests,
        rw_ratio=args.rw_ratio,
        capacity_fraction=args.capacity,
        topology=args.topology,
        topology_params={} if args.topology != "random" else {"p": 0.4},
        seed=args.seed,
        name="cli",
    )
    return paper_instance(cfg)


def _cfg_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        n_servers=args.servers,
        n_objects=args.objects,
        total_requests=args.requests,
        rw_ratio=args.rw_ratio,
        capacity_fraction=args.capacity,
        topology=args.topology,
        topology_params={} if args.topology != "random" else {"p": 0.4},
        seed=args.seed,
        name="cli-sweep",
    )


def cmd_generate(args: argparse.Namespace) -> int:
    instance = _instance_from_args(args)
    path = save_instance(instance, args.output)
    print(f"wrote {instance} -> {path}")
    return 0


def _add_export_args(p: argparse.ArgumentParser, *, metrics: bool = True) -> None:
    p.add_argument(
        "--events", help="write the JSONL event log to this path"
    )
    p.add_argument(
        "--events-rotate-mb",
        dest="events_rotate_mb",
        type=float,
        metavar="MB",
        help="rotate the --events log into .partNNNNN chunk files of "
        "about this many megabytes each",
    )
    p.add_argument(
        "--events-binary",
        dest="events_binary",
        help="also write the compact binary event log (REVB) to this path",
    )
    p.add_argument(
        "--chrome-trace",
        dest="chrome_trace",
        help="write a Chrome trace-event JSON (Perfetto) to this path",
    )
    if metrics:
        p.add_argument(
            "--metrics-out",
            dest="metrics_out",
            help="write an OpenMetrics/Prometheus textfile snapshot to this path",
        )


#: Campaign artifact arguments `_apply_out_dir` relocates.
_ARTIFACT_ATTRS = ("events", "events_binary", "chrome_trace", "report")


def _apply_out_dir(args: argparse.Namespace) -> None:
    """Route the campaign's relative artifact paths under ``--out-dir``.

    Absolute paths are honoured as given; the directory is only created
    when some artifact will actually land in it, so a dry campaign run
    leaves the tree untouched.
    """
    from pathlib import Path

    out_dir = getattr(args, "out_dir", None)
    if not out_dir or out_dir == ".":
        return
    base = Path(out_dir)
    used = False
    for attr in _ARTIFACT_ATTRS:
        value = getattr(args, attr, None)
        if value and not Path(value).is_absolute():
            setattr(args, attr, str(base / value))
            used = True
    if used:
        base.mkdir(parents=True, exist_ok=True)


def _wants_events(args: argparse.Namespace) -> bool:
    return bool(args.events or args.chrome_trace or args.events_binary)


def _tagged(path: Optional[str], tag: Optional[str]) -> Optional[str]:
    """``ev.jsonl`` -> ``ev.<tag>.jsonl``; the path itself without a tag."""
    if not path or not tag:
        return path
    from pathlib import Path

    p = Path(path)
    return str(p.with_name(f"{p.stem}.{tag}{p.suffix}"))


def _write_event_exports(
    args: argparse.Namespace, sink, *, tag: Optional[str] = None
) -> None:
    """Write the requested --events/--chrome-trace files from a sink.

    ``tag`` goes before each path's suffix, so several runs sharing one
    set of export flags each get their own files.
    """
    from repro.obs.export import (
        RotatingJsonlWriter,
        write_chrome_trace,
        write_events_binary,
        write_events_jsonl,
    )

    def lazy_events():
        # Block-aware sinks expand lazily; plain sinks hand over the list.
        return sink.iter_events() if hasattr(sink, "iter_events") else sink.events

    events = _tagged(args.events, tag)
    if events:
        if args.events_rotate_mb:
            with RotatingJsonlWriter(
                events, max_bytes=int(args.events_rotate_mb * 1_000_000)
            ) as writer:
                writer.write_all(lazy_events())
            print(
                f"wrote event log -> {writer.paths[0]} … "
                f"({len(writer.paths)} chunk(s), {writer.events_written} events)"
            )
        else:
            path = write_events_jsonl(lazy_events(), events)
            print(f"wrote event log -> {path} ({len(sink)} events)")
    events_binary = _tagged(args.events_binary, tag)
    if events_binary:
        path = write_events_binary(lazy_events(), events_binary)
        print(f"wrote binary event log -> {path} ({len(sink)} events)")
    chrome_trace = _tagged(args.chrome_trace, tag)
    if chrome_trace:
        path = write_chrome_trace(sink.events, chrome_trace)
        print(f"wrote Chrome trace -> {path}")


def cmd_run(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.obs import events as obs_events
    from repro.obs import tracer as obs_tracer

    instance = _instance_from_args(args)
    sink = obs_events.ColumnarSink()
    with ExitStack() as stack:
        if _wants_events(args):
            stack.enter_context(obs_events.capture(sink))
        tracer = (
            stack.enter_context(obs_tracer.capture())
            if args.metrics_out
            else None
        )
        results = run_algorithms(instance, [args.algorithm], seed=args.seed)
    res = results[args.algorithm]
    engine_note = (
        f"  engine {res.extra['engine']}" if "engine" in res.extra else ""
    )
    print(
        f"{res.algorithm}: OTC {res.otc:,.0f}  savings {res.savings_percent:.2f}%  "
        f"replicas {res.replicas_allocated}  runtime {res.runtime_s * 1e3:.1f} ms"
        f"{engine_note}"
    )
    _write_event_exports(args, sink)
    if args.metrics_out and tracer is not None:
        from pathlib import Path

        from repro.obs.export import openmetrics_from_snapshot

        text = openmetrics_from_snapshot(
            tracer.snapshot(), labels={"algorithm": args.algorithm}
        )
        Path(args.metrics_out).write_text(text)
        print(f"wrote OpenMetrics snapshot -> {args.metrics_out}")
    if args.output:
        path = save_result(res, args.output)
        print(f"wrote result -> {path}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    instance = _instance_from_args(args)
    algorithms = args.algorithms or list(PAPER_ALGORITHMS)
    results = run_algorithms(instance, algorithms, seed=args.seed)
    rows = [
        [a, r.savings_percent, r.runtime_s * 1e3, r.replicas_allocated]
        for a, r in results.items()
    ]
    print(
        render_table(
            ["method", "savings (%)", "runtime (ms)", "replicas"],
            rows,
            title=f"comparison on {instance.name} (M={instance.n_servers}, "
            f"N={instance.n_objects})",
        )
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _cfg_from_args(args)
    algorithms = args.algorithms or ["AGT-RAM", "Greedy"]
    if args.param == "capacity":
        rows = capacity_sweep(cfg, args.values or (0.1, 0.2, 0.3, 0.4),
                              algorithms, seed=args.seed)
        x_label = "capacity C"
    else:
        rows = rw_ratio_sweep(cfg, args.values or (0.5, 0.65, 0.8, 0.95),
                              algorithms, seed=args.seed)
        x_label = "R/W ratio"
    series: dict[str, list[tuple[float, float]]] = {}
    for r in rows:
        series.setdefault(r.algorithm, []).append((r.sweep_value, r.savings_percent))
    print(format_series(series, x_label=x_label))
    if not args.no_chart:
        print()
        print(ascii_chart(series, y_label="OTC savings (%)", x_label=x_label))
    if args.csv:
        from repro.experiments.export import sweep_to_csv

        path = sweep_to_csv(rows, args.csv)
        print(f"\nwrote raw rows -> {path}")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Regenerate the paper's figures/tables at a chosen scale."""
    from repro.experiments.figures import figure3_capacity_sweep, figure4_rw_sweep
    from repro.experiments.report import format_table_rows
    from repro.experiments.tables import table1_running_time, table2_quality
    from repro.experiments.config import SCALES

    base = SCALES[args.scale]
    grids = {
        "tiny": [(10, 40), (10, 60), (14, 40), (14, 60)],
        "small": [(30, 150), (30, 250), (50, 150), (50, 250)],
        "medium": [(60, 300), (60, 500), (100, 300), (100, 500)],
    }
    specs = {
        "tiny": [(10, 40, 0.2, 0.9), (12, 50, 0.3, 0.8), (14, 60, 0.25, 0.95)],
        "small": [(20, 90, 0.2, 0.9), (30, 150, 0.3, 0.8), (40, 220, 0.25, 0.95)],
        "medium": [(40, 180, 0.2, 0.9), (60, 280, 0.3, 0.8), (90, 580, 0.25, 0.95)],
    }
    targets = args.targets or ["fig3", "fig4", "table1", "table2"]
    if "fig3" in targets:
        series = figure3_capacity_sweep(base=base, seed=args.seed)
        print(format_series(series, x_label="capacity C",
                            title="Figure 3 — OTC savings (%) vs capacity"))
        print()
    if "fig4" in targets:
        series = figure4_rw_sweep(base=base, seed=args.seed)
        print(format_series(series, x_label="R/W ratio",
                            title="Figure 4 — OTC savings (%) vs R/W ratio"))
        print()
    if "table1" in targets:
        rows = table1_running_time(base, grid=grids[args.scale], seed=args.seed)
        print(format_table_rows(rows, metric_label="Table 1 — running time (s)"))
        print()
    if "table2" in targets:
        rows = table2_quality(base, specs=specs[args.scale], seed=args.seed)
        print(format_table_rows(rows, metric_label="Table 2 — OTC savings (%)"))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the perf harness, or diff two of its JSON documents."""
    from repro.obs.report import (
        compare_documents,
        default_output_name,
        format_comparison,
        load_document,
        run_bench,
        write_document,
    )

    if args.compare:
        old = load_document(args.compare[0])
        new = load_document(args.compare[1])
        cmp = compare_documents(
            old,
            new,
            time_tolerance=args.tolerance,
            quality_tolerance=args.quality_tolerance,
        )
        print(format_comparison(cmp))
        if cmp["regressions"]:
            if args.fail_on_regression:
                return 1
            print("(regressions are warn-only; pass --fail-on-regression to gate)")
        return 0

    from repro.obs import events as obs_events

    sink = obs_events.ColumnarSink()
    doc = run_bench(
        scale=args.scale,
        algorithms=args.algorithms,
        seed=args.seed,
        repeats=args.repeats,
        include_protocol=not args.no_protocol,
        event_sink=sink,
        include_engine_compare=not args.no_engine_compare,
    )
    rows = [
        [
            f"{r['scenario']}/{r['algorithm']}",
            r["wall_s"] * 1e3,
            r.get("savings_percent", 0.0),
            r.get("rounds", 0),
        ]
        for r in doc["results"]
    ]
    print(
        render_table(
            ["scenario", "wall (ms)", "savings (%)", "rounds"],
            rows,
            title=f"bench @ {doc['scale']} "
            f"(M={doc['config']['n_servers']}, N={doc['config']['n_objects']}, "
            f"best of {doc['repeats']})",
        )
    )
    for r in doc["results"]:
        if r["scenario"] == "engine_compare":
            verdict = "identical" if r["identical"] else "MISMATCH"
            print(
                f"engine compare: naive {r['naive_wall_s'] * 1e3:.2f} ms vs "
                f"vectorized {r['wall_s'] * 1e3:.2f} ms "
                f"({r['speedup']:.2f}x, {verdict})"
            )
    path = write_document(doc, args.out or default_output_name())
    print(f"wrote bench document -> {path}")
    _write_event_exports(args, sink)
    if args.metrics_out:
        from pathlib import Path

        from repro.obs.export import openmetrics_from_bench

        Path(args.metrics_out).write_text(openmetrics_from_bench(doc))
        print(f"wrote OpenMetrics snapshot -> {args.metrics_out}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Offline verification of a recorded event log (Axioms 4/5), or —
    with ``--compare-engines`` — a live naive-vs-vectorized equivalence
    proof on a bench preset.

    The compare mode runs AGT-RAM once per engine under logical event
    time, diffs winners / payments / placements / the full event
    stream, re-audits both logs, and times both engines uninstrumented.
    Exit status is non-zero on any divergence, an audit violation, or a
    speedup below ``--min-speedup``.
    """
    if args.compare_engines:
        from repro.obs.equivalence import compare_engines_at_scale, format_comparison

        cmp = compare_engines_at_scale(args.scale, repeats=args.repeats)
        # The identity verdict is deterministic; the speedup is a wall
        # measurement on possibly-noisy shared hardware, so before
        # failing the gate on it alone, re-measure and keep the best
        # attempt.  A genuinely slow engine fails every attempt.
        attempt = 0
        while (
            cmp.identical
            and cmp.audit_ok
            and args.min_speedup > 0
            and cmp.speedup < args.min_speedup
            and attempt < args.retries
        ):
            attempt += 1
            print(
                f"speedup {cmp.speedup:.2f}x below {args.min_speedup:.2f}x; "
                f"re-measuring (attempt {attempt}/{args.retries})",
                file=sys.stderr,
            )
            retry = compare_engines_at_scale(args.scale, repeats=args.repeats)
            if retry.speedup > cmp.speedup:
                cmp = retry
        print(format_comparison(cmp))
        failed = not (cmp.identical and cmp.audit_ok)
        if args.min_speedup > 0 and cmp.speedup < args.min_speedup:
            print(
                f"FAIL: speedup {cmp.speedup:.2f}x below required "
                f"{args.min_speedup:.2f}x",
                file=sys.stderr,
            )
            failed = True
        return 1 if failed else 0

    if args.emission_gate:
        from repro.obs.overhead import (
            compare_emission_paths,
            default_overhead_budget,
            format_emission_comparison,
        )

        budget = (
            args.max_overhead
            if args.max_overhead is not None
            else default_overhead_budget(args.scale)
        )
        cmp = compare_emission_paths(args.scale, repeats=args.repeats)
        # Byte-equivalence is deterministic; the overhead is a timing
        # measurement on possibly-noisy shared hardware, so before
        # failing the gate on it alone, re-measure and keep the best
        # attempt.  A genuinely slow emission path fails every attempt.
        attempt = 0
        while (
            cmp.ok
            and cmp.overhead_percent > budget
            and attempt < args.retries
        ):
            attempt += 1
            print(
                f"overhead {cmp.overhead_percent:.2f}% above {budget:.2f}%; "
                f"re-measuring (attempt {attempt}/{args.retries})",
                file=sys.stderr,
            )
            retry = compare_emission_paths(args.scale, repeats=args.repeats)
            if retry.overhead_percent < cmp.overhead_percent:
                cmp = retry
        print(format_emission_comparison(cmp))
        failed = not cmp.ok
        if cmp.overhead_percent > budget:
            print(
                f"FAIL: eventing overhead {cmp.overhead_percent:.2f}% above "
                f"budget {budget:.2f}%",
                file=sys.stderr,
            )
            failed = True
        return 1 if failed else 0

    if not args.log:
        print(
            "error: provide an event log, --compare-engines, or "
            "--emission-gate",
            file=sys.stderr,
        )
        return 2
    from repro.obs.audit import audit_log

    window = args.window if args.window else (64 if args.stream else 0)

    def progress(rounds_done: int, running) -> None:
        if args.stream:
            status = (
                "ok"
                if running.ok
                else f"{len(running.violations)} violation(s)"
            )
            print(f"  … {rounds_done} rounds audited, {status}")

    try:
        report, serving = audit_log(
            args.log, sharded=args.sharded, window=window, on_window=progress
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    # A scenario log's serving tail: placement consistency of every
    # served request (a log with no serving events has nothing to add).
    if serving.requests_audited or not serving.ok:
        print("serving tail")
        print(serving.summary())
    return 0 if report.ok and serving.ok else 1


def _load_scenarios(names: Sequence[str]) -> list:
    """Catalog presets by name, or scenario JSON files by path."""
    import json
    from pathlib import Path

    from repro.runtime.scenario import CATALOG, Scenario

    scenarios = []
    for name in names:
        if name in CATALOG:
            scenarios.append(CATALOG[name])
        elif Path(name).is_file():
            scenarios.append(Scenario.from_dict(json.loads(Path(name).read_text())))
        else:
            raise LookupError(
                f"unknown scenario {name!r}: neither a scenario JSON file "
                f"nor in the catalog ({', '.join(CATALOG)})"
            )
    return scenarios


def cmd_resilience(args: argparse.Namespace) -> int:
    """The campaign driver: run scenarios end to end and gate them.

    Runs each selected :class:`~repro.runtime.scenario.Scenario` —
    catalog presets, scenario JSON files and/or ``--lottery`` random
    compositions — on the flat central (one region) or the sharded one,
    then its optional serving phase, with the online invariant monitor
    (the offline audits, run live) armed, and gates it on the
    scenario's own thresholds plus final-scheme feasibility and no
    honest agent quarantined, on either central.  A failing scenario
    is greedily shrunk (drop planes, halve the workload, bisect the
    horizon) to a minimal still-failing ``<name>_scenario.json`` that
    ``--scenario`` runs again, unless ``--no-shrink``.  With several
    scenarios, each export path gets the scenario name before its
    suffix.  Deterministic: every plane draws
    from its own substream of the scenario seed and the event log runs
    on the logical clock, so same-argument runs (and the ``--report``
    JSON) are byte-for-byte identical.
    """
    import json
    from pathlib import Path

    from repro.errors import ReproError
    from repro.runtime.scenario import (
        CATALOG,
        Scenario,
        run_scenario,
        scenario_fails,
        shrink_scenario,
    )

    _apply_out_dir(args)
    try:
        scenarios = _load_scenarios(args.scenario or ())
    except (LookupError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.scenario:
        scenarios.extend(CATALOG.values())
    for i in range(args.lottery):
        scenarios.append(Scenario.random(args.lottery_seed + i))
    tag_exports = len(scenarios) > 1

    rows = []
    runs = []
    failures: list[str] = []
    out_base = Path(args.out_dir) if args.out_dir else Path(".")
    for sc in scenarios:
        try:
            outcome = run_scenario(sc, strict=args.strict)
        except ReproError as exc:
            failures.append(f"{sc.name}: aborted: {exc}")
            rows.append([sc.name, sc.regions, "-", "-", "-", "-", "-", "-",
                         "-", "ERROR"])
            runs.append(
                {"scenario": sc.to_dict(), "error": str(exc), "ok": False}
            )
            scenario_failed = True
        else:
            r = outcome.report
            failures.extend(f"{sc.name}: {f}" for f in outcome.failures)
            planes = "+".join(
                tag for tag, on in (
                    ("faults", r["planes"]["faults"]
                     or r["planes"]["serving_faults"]),
                    ("adv", r["planes"]["adversary"]),
                    ("part", r["planes"]["partition"]),
                ) if on
            ) or "none"
            vs_flat, serving = r["vs_flat"], r["serving"]
            rows.append(
                [
                    sc.name,
                    sc.regions,
                    planes,
                    "-" if vs_flat is None
                    else f"x{vs_flat['otc_degradation']:.4f}",
                    "-" if serving is None
                    else f"{serving['availability']:.4f}",
                    r["invariants"]["violations"],
                    f"{r['recovery']['mttr']:.1f}",
                    f"{r['recovery']['degraded_fraction']:.3f}",
                    f"{r['detection']['recall']:.3f}",
                    "PASS" if outcome.ok else "FAIL",
                ]
            )
            runs.append(r)
            scenario_failed = not outcome.ok
            _write_event_exports(
                args, outcome.monitor, tag=sc.name if tag_exports else None
            )
        if scenario_failed and not args.no_shrink:
            mini, probes = shrink_scenario(sc, scenario_fails)
            out_base.mkdir(parents=True, exist_ok=True)
            path = out_base / f"{sc.name}_scenario.json"
            path.write_text(json.dumps(mini.to_dict(), indent=2) + "\n")
            print(
                f"shrunk {sc.name} to a minimal failing scenario "
                f"({probes} probes) -> {path}"
            )
            runs[-1]["shrunk_scenario"] = mini.to_dict()

    print(
        render_table(
            [
                "scenario",
                "regions",
                "planes",
                "OTC vs flat",
                "availability",
                "inv-viol",
                "MTTR",
                "degraded",
                "recall",
                "verdict",
            ],
            rows,
            title=f"resilience campaign ({len(scenarios)} scenario(s), "
            f"{len(CATALOG)} in catalog)",
        )
    )
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    print(f"verdict: {'PASS' if not failures else 'FAIL'}")
    report = {
        "kind": "repro-resilience",
        "catalog": sorted(CATALOG),
        "lottery": args.lottery,
        "lottery_seed": args.lottery_seed,
        "strict": bool(args.strict),
        "runs": runs,
        "failures": failures,
        "ok": not failures,
    }
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote resilience report -> {args.report}")
    return 1 if failures else 0


def cmd_axioms(args: argparse.Namespace) -> int:
    instance = _instance_from_args(args)
    result = run_agt_ram(instance, record_audit=True)
    checks = verify_axioms(instance, result)
    failed = 0
    for name, check in checks.items():
        status = "PASS" if check.passed else "FAIL"
        failed += not check.passed
        print(f"{name:28s} {status}  {check.detail}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AGT-RAM replica placement (Khan & Ahmad, IPPS 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build and save a DRP instance")
    _add_instance_args(p)
    p.add_argument("--output", "-o", required=True, help="output .npz path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="run one algorithm")
    _add_instance_args(p)
    p.add_argument(
        "--algorithm", "-a", default="AGT-RAM",
        choices=list(PAPER_ALGORITHMS) + ["Random"],
    )
    p.add_argument("--output", "-o", help="save scheme + summary")
    _add_export_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run several algorithms")
    _add_instance_args(p)
    p.add_argument("--algorithms", nargs="+", choices=list(PAPER_ALGORITHMS) + ["Random"])
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="capacity or R/W sweep")
    _add_instance_args(p)
    p.add_argument("--param", choices=["capacity", "rw"], default="capacity")
    p.add_argument("--values", nargs="+", type=float)
    p.add_argument("--algorithms", nargs="+", choices=list(PAPER_ALGORITHMS))
    p.add_argument("--no-chart", action="store_true")
    p.add_argument("--csv", help="also write the raw rows to this CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("axioms", help="verify the six axioms on a run")
    _add_instance_args(p)
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser(
        "bench",
        help="run the perf harness / compare two bench JSON documents",
    )
    p.add_argument(
        "--out", "-o", help="output JSON path (default BENCH_<date>.json)"
    )
    p.add_argument(
        "--scale",
        choices=sorted(BENCH_SCALE_CONFIGS),
        help="instance preset (default: $REPRO_BENCH_SCALE or 'small')",
    )
    p.add_argument(
        "--algorithms", nargs="+", help="placement algorithms to record"
    )
    p.add_argument(
        "--no-engine-compare",
        action="store_true",
        dest="no_engine_compare",
        help="skip the naive-vs-vectorized engine_compare record",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--repeats", type=int, default=3, help="runs per scenario (wall = best)"
    )
    p.add_argument(
        "--no-protocol",
        action="store_true",
        help="skip the message-granular simulator scenario",
    )
    p.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        help="diff two bench documents instead of running",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="wall-time regression tolerance as a fraction (default 0.15)",
    )
    p.add_argument(
        "--quality-tolerance",
        type=float,
        default=1.0,
        help="OTC-savings regression tolerance in points (default 1.0)",
    )
    p.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 1 when --compare finds regressions (default: warn only)",
    )
    _add_export_args(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "audit",
        help="verify a recorded event log offline (winner/payment/capacity, "
        "and the serving tail's placement consistency when the log serves "
        "requests), or prove naive/vectorized engine equivalence",
    )
    p.add_argument(
        "log",
        nargs="*",
        help="event log(s) written by --events / --events-binary; a "
        "rotated log's logical name resolves to its .partNNNNN chunks, "
        "and multiple paths chain into one audited stream",
    )
    p.add_argument(
        "--window",
        type=int,
        default=0,
        help="audit in windows of N rounds (bounded memory over lazy "
        "decoding; verdicts are identical to a whole-log audit)",
    )
    p.add_argument(
        "--stream",
        action="store_true",
        help="print a progress line per audited window (implies "
        "--window 64 unless set)",
    )
    p.add_argument(
        "--sharded",
        action="store_true",
        help="audit a sharded-central log: per-shard mechanism audits "
        "from the region tags, the cross-shard reconciliation pass, and "
        "a flat audit of the untagged rounds of nested runs (a "
        "scenario's serving-tail re-auctions)",
    )
    p.add_argument(
        "--emission-gate",
        action="store_true",
        dest="emission_gate",
        help="prove AGT-RAM's columnar event stream equals the one replayed "
        "from its audit transcript (vectorized and naive engines, first "
        "price, a strategy map, a warm start) on a bench preset and "
        "measure its eventing-on overhead",
    )
    p.add_argument(
        "--max-overhead",
        type=float,
        default=None,
        dest="max_overhead",
        help="fail --emission-gate if eventing overhead exceeds this "
        "percent (default: the per-scale budget, 8%% at large)",
    )
    p.add_argument(
        "--compare-engines",
        action="store_true",
        dest="compare_engines",
        help="run AGT-RAM with both engines on a bench preset and verify "
        "bit-for-bit identical winners, payments, and events",
    )
    p.add_argument(
        "--scale",
        choices=sorted(BENCH_SCALE_CONFIGS),
        default="tiny",
        help="bench preset for --compare-engines (default tiny)",
    )
    p.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="uninstrumented timing runs per engine (wall = best; default 3)",
    )
    p.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        dest="min_speedup",
        help="fail unless vectorized is at least this many times faster "
        "(default 0 = identity check only)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=2,
        help="re-measurements before failing the speedup gate on a "
        "noisy machine (default 2; identity mismatches never retry)",
    )
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser(
        "resilience",
        help="the campaign driver: catalog presets, lottery draws and "
        "scenario files, gated, with failures shrunk",
    )
    p.add_argument(
        "--scenario", action="append", metavar="NAME|FILE",
        help="run this catalog preset, or the scenario JSON at this path "
        "(repeatable; default: the whole catalog)",
    )
    p.add_argument(
        "--lottery", type=int, default=0, metavar="N",
        help="also run N random scenario compositions (default 0)",
    )
    p.add_argument(
        "--lottery-seed", type=int, default=0, dest="lottery_seed",
        help="base seed for the lottery tickets (ticket i uses seed+i)",
    )
    p.add_argument(
        "--strict", action="store_true",
        help="abort a scenario on the first invariant violation instead "
        "of collecting them",
    )
    p.add_argument(
        "--no-shrink", action="store_true", dest="no_shrink",
        help="skip shrinking failing scenarios to minimal repro JSONs",
    )
    p.add_argument(
        "--report", help="write the full campaign report JSON here"
    )
    p.add_argument(
        "--out-dir",
        dest="out_dir",
        default="out",
        help="directory campaign artifacts (--report, --events, …) are "
        "written under; created if missing, relative artifact paths are "
        "prefixed with it (default: out)",
    )
    _add_export_args(p, metrics=False)
    p.set_defaults(func=cmd_resilience)

    p = sub.add_parser(
        "reproduce", help="regenerate the paper's figures/tables"
    )
    p.add_argument(
        "--targets", nargs="+", choices=["fig3", "fig4", "table1", "table2"]
    )
    p.add_argument("--scale", choices=["tiny", "small", "medium"], default="tiny")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

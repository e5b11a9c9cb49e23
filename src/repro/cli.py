"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
generate   build a DRP instance from knobs and save it to .npz
run        run one placement algorithm on an instance (file or knobs)
compare    run several algorithms and print the comparison table
sweep      capacity or R/W sweep, printed as table + ASCII chart
axioms     run AGT-RAM with an audit and verify the six axioms
bench      machine-readable perf harness (BENCH_*.json + regression diff)
audit      offline axiom verification of a recorded JSONL event log
chaos      seeded fault-injection campaign vs a fault-free baseline
adversary  seeded Byzantine-agent campaign vs the honest baseline
serve      resilient online serving campaign with SLO gates
shard      partition-tolerance campaign for the sharded central

``run`` and ``bench`` accept ``--events`` (JSONL event log),
``--chrome-trace`` (Perfetto-loadable trace) and ``--metrics-out``
(OpenMetrics textfile) to export the observability stream.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.agt_ram import run_agt_ram
from repro.core.axioms import verify_axioms
from repro.drp.delta import ENGINE_NAMES
from repro.drp.instance import DRPInstance
from repro.experiments.config import ExperimentConfig
from repro.experiments.instances import paper_instance
from repro.experiments.runner import PAPER_ALGORITHMS, run_algorithms
from repro.experiments.report import format_series
from repro.experiments.sweeps import capacity_sweep, rw_ratio_sweep
from repro.io import load_instance, save_instance, save_result
from repro.obs.report import BENCH_SCALE_CONFIGS
from repro.runtime.adversary import BEHAVIORS
from repro.serving.streams import SERVE_WORKLOADS
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


def _add_export_args(p: argparse.ArgumentParser) -> None:
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
    p.add_argument(
        "--metrics-out",
        dest="metrics_out",
        help="write an OpenMetrics/Prometheus textfile snapshot to this path",
    )


#: Campaign artifact arguments `_apply_out_dir` relocates.
_ARTIFACT_ATTRS = (
    "events",
    "events_binary",
    "chrome_trace",
    "metrics_out",
    "report",
    "fault_log",
    "plan_out",
)


def _add_out_dir_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--out-dir",
        dest="out_dir",
        default="out",
        help="directory campaign artifacts (--report, --events, …) are "
        "written under; created if missing, relative artifact paths are "
        "prefixed with it (default: out)",
    )


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


def _write_event_exports(args: argparse.Namespace, sink) -> None:
    """Write the requested --events/--chrome-trace files from a sink."""
    from repro.obs.export import (
        RotatingJsonlWriter,
        write_chrome_trace,
        write_events_binary,
        write_events_jsonl,
    )

    def lazy_events():
        # Block-aware sinks expand lazily; plain sinks hand over the list.
        return sink.iter_events() if hasattr(sink, "iter_events") else sink.events

    if args.events:
        if args.events_rotate_mb:
            with RotatingJsonlWriter(
                args.events, max_bytes=int(args.events_rotate_mb * 1_000_000)
            ) as writer:
                writer.write_all(lazy_events())
            print(
                f"wrote event log -> {writer.paths[0]} … "
                f"({len(writer.paths)} chunk(s), {writer.events_written} events)"
            )
        else:
            path = write_events_jsonl(lazy_events(), args.events)
            print(f"wrote event log -> {path} ({len(sink)} events)")
    if args.events_binary:
        path = write_events_binary(lazy_events(), args.events_binary)
        print(f"wrote binary event log -> {path} ({len(sink)} events)")
    if args.chrome_trace:
        path = write_chrome_trace(sink.events, args.chrome_trace)
        print(f"wrote Chrome trace -> {path}")


def _campaign_instance_meta(
    instance: DRPInstance, args: argparse.Namespace
) -> dict:
    """The instance block every campaign report JSON carries."""
    return {
        "name": instance.name,
        "n_servers": instance.n_servers,
        "n_objects": instance.n_objects,
        "seed": args.seed,
    }


def _finish_campaign(
    args: argparse.Namespace,
    *,
    label: str,
    report: dict,
    failures: Sequence[str],
    sink=None,
) -> int:
    """Shared tail of a campaign subcommand (chaos / adversary / serve).

    Prints one ``FAIL:`` line per gate violation and the verdict, writes
    the ``--report`` JSON (stamped with ``failures`` / ``ok``), exports
    the captured event stream, and maps failures onto the exit status.
    """
    import json
    from pathlib import Path

    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    print(f"verdict: {'PASS' if not failures else 'FAIL'}")
    report = {**report, "failures": list(failures), "ok": not failures}
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {label} report -> {args.report}")
    if sink is not None:
        _write_event_exports(args, sink)
    return 1 if failures else 0


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
        placer_kwargs = (
            {"AGT-RAM": {"engine": args.engine}}
            if args.algorithm == "AGT-RAM"
            else None
        )
        results = run_algorithms(
            instance, [args.algorithm], seed=args.seed, placer_kwargs=placer_kwargs
        )
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
        engine=args.engine,
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
        from repro.drp.delta import HAVE_NUMPY, numpy_support_error
        from repro.obs.equivalence import compare_engines_at_scale, format_comparison

        if not HAVE_NUMPY:
            print(f"error: {numpy_support_error()}", file=sys.stderr)
            return 2
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
    if args.sharded:
        from repro.obs.audit import audit_sharded_files

        try:
            report = audit_sharded_files(args.log)
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report.summary())
        return 0 if report.ok else 1
    from repro.obs.audit import audit_files

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
        report = audit_files(args.log, window=window, on_window=progress)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    return 0 if report.ok else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded chaos campaign: run the simulator under a fault plan and
    report OTC / round / message degradation against the fault-free
    baseline on the same instance.

    The run is fully deterministic (``--fault-seed`` fixes the schedule
    and the channel; the event log uses a logical clock, so two runs
    with the same arguments are byte-for-byte identical).  Exit status
    is non-zero if the final scheme is infeasible, the event log fails
    the mechanism audit, or OTC degrades beyond ``--max-degradation``.
    """
    import json
    from pathlib import Path

    from repro.drp.feasibility import check_state
    from repro.obs import events as obs_events
    from repro.obs.audit import audit_events
    from repro.runtime.faults import ChannelConfig, FaultPlan, FaultSchedule, QuorumPolicy
    from repro.runtime.simulator import SemiDistributedSimulator

    _apply_out_dir(args)
    instance = _instance_from_args(args)
    m = instance.n_servers

    baseline = SemiDistributedSimulator().run(instance)
    base_log = baseline.extra["metrics"].log

    schedule = FaultSchedule.random(
        n_agents=m,
        horizon=args.horizon,
        seed=args.fault_seed,
        crash_rate=args.crash_rate,
        mean_outage=args.mean_outage,
        straggler_rate=args.straggler_rate,
        central_crash_rate=args.central_crash_rate,
        central_crashes=tuple(args.central_crash_round or ()),
    )
    plan = FaultPlan(
        schedule=schedule,
        channel=ChannelConfig(
            drop=args.drop, delay=args.delay, duplicate=args.duplicate
        ),
        quorum=QuorumPolicy(
            quorum=args.quorum,
            max_retries=args.max_retries,
            max_stalled_rounds=args.max_stalled_rounds,
        ),
        checkpoint_period=args.checkpoint_period,
        seed=args.fault_seed,
    )

    sink = obs_events.ColumnarSink()
    with obs_events.logical_time(), obs_events.capture(sink):
        chaos = SemiDistributedSimulator(faults=plan).run(instance)
    chaos_log = chaos.extra["metrics"].log

    failures = []
    feasible = True
    try:
        check_state(chaos.state)
    except Exception as exc:  # infeasibility details go in the report
        feasible = False
        failures.append(f"infeasible final scheme: {exc}")

    audit = audit_events(sink.events)
    if not audit.ok:
        failures.append(
            f"mechanism audit FAIL ({len(audit.violations)} violations)"
        )
    degradation = chaos.otc / baseline.otc if baseline.otc else 1.0
    if args.max_degradation is not None and degradation > args.max_degradation:
        failures.append(
            f"OTC degradation x{degradation:.4f} exceeds bound "
            f"x{args.max_degradation:.4f}"
        )
    summary = chaos.extra["fault_summary"]

    rows = [
        ["OTC", f"{baseline.otc:,.0f}", f"{chaos.otc:,.0f}",
         f"x{degradation:.4f}"],
        ["rounds (committed)", baseline.rounds, chaos.rounds, ""],
        ["rounds (protocol)", baseline.extra["protocol_rounds"],
         chaos.extra["protocol_rounds"], ""],
        ["messages", base_log.total_messages(), chaos_log.total_messages(),
         ""],
        ["bytes", base_log.bytes_total, chaos_log.bytes_total, ""],
    ]
    print(
        render_table(
            ["metric", "fault-free", "chaos", "degradation"],
            rows,
            title=f"chaos campaign on {instance.name} (M={m}, "
            f"N={instance.n_objects}, fault seed {args.fault_seed})",
        )
    )
    injected = summary["injected"]
    print(
        "injected: "
        + ", ".join(f"{k}={v}" for k, v in sorted(injected.items()) if v)
    )
    print(f"feasible: {'yes' if feasible else 'NO'}")
    print(f"audit:    {'PASS' if audit.ok else 'FAIL'}")

    report = {
        "kind": "repro-chaos",
        "instance": _campaign_instance_meta(instance, args),
        "fault_seed": args.fault_seed,
        "baseline": {
            "otc": baseline.otc,
            "rounds": baseline.rounds,
            "messages": base_log.total_messages(),
            "bytes": base_log.bytes_total,
        },
        "chaos": {
            "otc": chaos.otc,
            "rounds": chaos.rounds,
            "protocol_rounds": chaos.extra["protocol_rounds"],
            "messages": chaos_log.total_messages(),
            "bytes": chaos_log.bytes_total,
            "message_counts": dict(sorted(chaos_log.counts.items())),
        },
        "otc_degradation": degradation,
        "feasible": feasible,
        "audit_ok": audit.ok,
        "audit_violations": [str(v) for v in audit.violations],
        "fault_summary": summary,
    }
    if args.fault_log:
        Path(args.fault_log).write_text(json.dumps(summary, indent=2) + "\n")
        print(f"wrote fault summary -> {args.fault_log}")
    return _finish_campaign(
        args, label="chaos", report=report, failures=failures, sink=sink
    )


def cmd_adversary(args: argparse.Namespace) -> int:
    """Seeded Byzantine campaign: sweep adversary fractions on one
    instance and report OTC degradation vs. the honest run plus online
    detection quality (recall / precision over injected manipulations).

    Deterministic like ``chaos``: ``--adv-seed`` fixes who misbehaves
    and how, and the logical event clock makes same-seed runs
    byte-for-byte identical.  Exit status is non-zero if any swept run
    produces an infeasible scheme, fails the mechanism audit,
    quarantines an honest agent, detects fewer than ``--min-recall`` of
    the injected manipulations, or degrades OTC beyond
    ``--max-degradation``.
    """
    from repro.drp.feasibility import check_state
    from repro.obs import events as obs_events
    from repro.obs.audit import audit_events
    from repro.runtime.adversary import AdversaryPlan, QuarantinePolicy
    from repro.runtime.simulator import SemiDistributedSimulator

    _apply_out_dir(args)
    instance = _instance_from_args(args)
    m = instance.n_servers

    baseline = SemiDistributedSimulator().run(instance)

    policy = QuarantinePolicy(
        strikes=args.strikes,
        probation=args.probation,
        max_quarantines=args.max_quarantines,
    )
    fractions = args.fraction or [0.25]

    rows = []
    runs = []
    failures = []
    sink = obs_events.ColumnarSink()
    for fraction in fractions:
        plan = AdversaryPlan.random(
            n_agents=m,
            fraction=fraction,
            behaviors=tuple(args.behaviors) if args.behaviors else BEHAVIORS,
            factor=args.factor,
            activity=args.activity,
            seed=args.adv_seed,
        )
        sink = obs_events.ColumnarSink()
        with obs_events.logical_time(), obs_events.capture(sink):
            result = SemiDistributedSimulator(
                adversary=plan, quarantine=policy
            ).run(instance)

        feasible = True
        try:
            check_state(result.state)
        except Exception as exc:
            feasible = False
            failures.append(f"fraction {fraction}: infeasible scheme: {exc}")
        audit = audit_events(sink.events)
        if not audit.ok:
            failures.append(
                f"fraction {fraction}: audit FAIL "
                f"({len(audit.violations)} violations)"
            )

        # Ground truth vs. what the online defences flagged, joined on
        # (round, agent).  AdversaryEvent is emitted only for bids the
        # injector actually altered, so recall is over real injections.
        truth = set()
        flagged = set()
        quarantined_agents = set()
        for e in sink.events:
            d = e.to_dict()
            if d["type"] == "adversary":
                truth.add((d["round"], d["agent"]))
            elif d["type"] in ("validation", "manipulation") and d["agent"] >= 0:
                flagged.add((d["round"], d["agent"]))
            elif d["type"] == "quarantine" and d["action"] in (
                "quarantine",
                "expel",
            ):
                quarantined_agents.add(d["agent"])
        caught = truth & flagged
        recall = len(caught) / len(truth) if truth else 1.0
        precision = len(caught) / len(flagged) if flagged else 1.0
        false_quarantines = sorted(
            quarantined_agents - set(plan.agents)
        )
        if false_quarantines:
            failures.append(
                f"fraction {fraction}: honest agents quarantined: "
                f"{false_quarantines}"
            )
        if args.min_recall is not None and recall < args.min_recall:
            failures.append(
                f"fraction {fraction}: recall {recall:.3f} below bound "
                f"{args.min_recall:.3f}"
            )
        degradation = result.otc / baseline.otc if baseline.otc else 1.0
        if (
            args.max_degradation is not None
            and degradation > args.max_degradation
        ):
            failures.append(
                f"fraction {fraction}: OTC degradation x{degradation:.4f} "
                f"exceeds bound x{args.max_degradation:.4f}"
            )

        trust = result.extra["trust_summary"]
        rows.append(
            [
                f"{fraction:.2f}",
                len(plan.agents),
                f"{result.otc:,.0f}",
                f"x{degradation:.4f}",
                len(truth),
                f"{recall:.3f}",
                f"{precision:.3f}",
                len(trust["agents_quarantined"]),
                len(trust["agents_expelled"]),
                len(false_quarantines),
            ]
        )
        runs.append(
            {
                "fraction": fraction,
                "plan": plan.to_dict(),
                "otc": result.otc,
                "otc_degradation": degradation,
                "rounds": result.rounds,
                "protocol_rounds": result.extra["protocol_rounds"],
                "feasible": feasible,
                "audit_ok": audit.ok,
                "audit_violations": [str(v) for v in audit.violations],
                "injected": len(truth),
                "flagged": len(flagged),
                "recall": recall,
                "precision": precision,
                "false_quarantines": false_quarantines,
                "adversary_summary": result.extra["adversary_summary"],
                "trust_summary": trust,
            }
        )

    print(
        render_table(
            [
                "fraction",
                "byz",
                "OTC",
                "degradation",
                "injected",
                "recall",
                "precision",
                "quarantined",
                "expelled",
                "false-q",
            ],
            rows,
            title=f"adversary campaign on {instance.name} (M={m}, "
            f"N={instance.n_objects}, honest OTC {baseline.otc:,.0f}, "
            f"adv seed {args.adv_seed})",
        )
    )
    report = {
        "kind": "repro-adversary",
        "instance": _campaign_instance_meta(instance, args),
        "adv_seed": args.adv_seed,
        "quarantine_policy": policy.to_dict(),
        "baseline": {"otc": baseline.otc, "rounds": baseline.rounds},
        "runs": runs,
    }
    return _finish_campaign(
        args, label="adversary", report=report, failures=failures, sink=sink
    )


def cmd_serve(args: argparse.Namespace) -> int:
    """Resilient online serving campaign with SLO gates.

    Auctions a placement for the workload's measured demand, then
    streams the workload's requests against it under an (optional)
    fault schedule: nearest-replica routing, timeout + backoff
    failover, hedged reads, token-bucket shedding, and drift-triggered
    incremental re-auctions.  Deterministic like ``chaos``: the event
    log uses a logical clock, so two runs with the same arguments are
    byte-for-byte identical.  Exit status is non-zero if either audit
    fails, availability drops below ``--min-availability``, or p99
    latency exceeds ``--max-p99``.
    """
    import math

    from repro.obs import events as obs_events
    from repro.obs.audit import audit_events, audit_serving_events
    from repro.runtime.faults import FaultSchedule
    from repro.runtime.simulator import SemiDistributedSimulator
    from repro.serving import ServeConfig, make_traffic, serve, with_demand

    _apply_out_dir(args)
    base = _instance_from_args(args)
    m = base.n_servers

    traffic = make_traffic(
        args.workload, base, args.serve_requests, seed=args.serve_seed
    )
    instance = with_demand(base, traffic)
    placement = SemiDistributedSimulator().run(instance)

    horizon = max(
        1, math.ceil(args.serve_requests / args.requests_per_round)
    )
    if args.crash_rate > 0 or args.straggler_rate > 0:
        schedule = FaultSchedule.random(
            n_agents=m,
            horizon=horizon,
            seed=args.fault_seed,
            crash_rate=args.crash_rate,
            mean_outage=args.mean_outage,
            straggler_rate=args.straggler_rate,
        )
    else:
        schedule = FaultSchedule.null()

    config = ServeConfig(
        timeout=args.timeout,
        max_attempts=args.max_attempts,
        hedge_quantile=args.hedge_quantile,
        hedge_enabled=not args.no_hedge,
        rate=args.rate,
        burst=args.burst,
        requests_per_round=args.requests_per_round,
        drift_window=args.drift_window,
        drift_threshold=args.drift_threshold,
        drift_top_k=args.drift_top_k,
        max_reauctions=args.max_reauctions,
    )

    sink = obs_events.ColumnarSink()
    with obs_events.logical_time(), obs_events.capture(sink):
        rep = serve(
            instance,
            placement.state,
            traffic.stream,
            config=config,
            faults=schedule,
            seed=args.serve_seed,
            workload=args.workload,
            n_requests=args.serve_requests,
        )

    serving_audit = audit_serving_events(sink.events)
    mech_audit = audit_events(sink.events)

    failures = []
    if not serving_audit.ok:
        failures.append(
            f"serving audit FAIL ({len(serving_audit.violations)} violations)"
        )
    if not mech_audit.ok:
        failures.append(
            f"mechanism audit FAIL ({len(mech_audit.violations)} violations)"
        )
    if (
        args.min_availability is not None
        and rep.availability < args.min_availability
    ):
        failures.append(
            f"availability {rep.availability:.4f} below bound "
            f"{args.min_availability:.4f}"
        )
    if args.max_p99 is not None and rep.p99 > args.max_p99:
        failures.append(
            f"p99 latency {rep.p99:.1f} exceeds bound {args.max_p99:.1f}"
        )

    rows = [
        ["requests", rep.n_requests],
        ["admitted", rep.admitted],
        ["served", rep.served],
        ["failed", rep.failed],
        ["shed", rep.shed],
        ["availability", f"{rep.availability:.4f}"],
        ["p50 latency", f"{rep.p50:.1f}"],
        ["p99 latency", f"{rep.p99:.1f}"],
        ["hedges", rep.hedges],
        ["failovers", rep.failovers],
        ["timeouts", rep.timeouts],
        ["re-auctions", rep.reauctions],
    ]
    print(
        render_table(
            ["metric", "value"],
            rows,
            title=f"serving campaign: {args.workload} on {instance.name} "
            f"(M={m}, N={instance.n_objects}, serve seed "
            f"{args.serve_seed}, fault seed {args.fault_seed})",
        )
    )
    print(f"serving audit:   {'PASS' if serving_audit.ok else 'FAIL'}")
    print(f"mechanism audit: {'PASS' if mech_audit.ok else 'FAIL'}")

    report = {
        "kind": "repro-serve",
        "instance": _campaign_instance_meta(base, args),
        "workload": args.workload,
        "serve_seed": args.serve_seed,
        "fault_seed": args.fault_seed,
        "placement": {"otc": placement.otc, "rounds": placement.rounds},
        "serving": rep.to_dict(),
        "serving_audit_ok": serving_audit.ok,
        "serving_audit_violations": [
            str(v) for v in serving_audit.violations
        ],
        "audit_ok": mech_audit.ok,
        "audit_violations": [str(v) for v in mech_audit.violations],
        "gates": {
            "min_availability": args.min_availability,
            "max_p99": args.max_p99,
        },
    }
    return _finish_campaign(
        args, label="serve", report=report, failures=failures, sink=sink
    )


def cmd_shard(args: argparse.Namespace) -> int:
    """Partition-tolerance campaign for the sharded central.

    Runs the concurrent regional mechanism healthy, then sweeps
    partition fractions (seeded :class:`PartitionSchedule`\\ s with
    optional regional-central crashes) and reports rounds to
    convergence, OTC degradation, split-brain statistics and the
    message/byte reduction against the single-central simulator
    baseline on the same instance.

    Deterministic like ``chaos``: ``--shard-seed`` fixes the proximity
    partition, ``--partition-seed`` the schedule, and the logical event
    clock makes same-argument runs (and their ``--report`` JSON)
    byte-for-byte identical.  Exit status is non-zero if any swept run
    is infeasible, fails the per-shard/cross-shard audit, degrades OTC
    beyond ``--max-degradation``, if the healthy sharded run's message
    reduction is below ``--min-message-reduction``, or if
    ``--check-null`` finds the null-schedule event stream differing
    from the unpartitioned one.
    """
    import json
    from pathlib import Path

    from repro.drp.feasibility import check_state
    from repro.obs import events as obs_events
    from repro.obs.audit import audit_sharded_events
    from repro.runtime.shard import PartitionSchedule, ShardedAGTRam
    from repro.runtime.simulator import SemiDistributedSimulator

    _apply_out_dir(args)
    if args.scale:
        instance = paper_instance(BENCH_SCALE_CONFIGS[args.scale])
    else:
        instance = _instance_from_args(args)
    m = instance.n_servers

    baseline = SemiDistributedSimulator().run(instance)
    base_log = baseline.extra["metrics"].log
    base_msgs = sum(base_log.counts.values())

    def sharded(plan):
        sink = obs_events.ColumnarSink()
        with obs_events.logical_time(), obs_events.capture(sink):
            result = ShardedAGTRam(
                n_regions=args.regions,
                plan=plan,
                engine=args.engine,
                seed=args.shard_seed,
            ).run(instance)
        return result, sink

    failures = []

    # Healthy sharded reference: the horizon for random schedules and
    # the headline message-reduction claim (partitioned runs add heal
    # resyncs and election storms on top; the reduction is a property
    # of the healthy protocol).
    healthy, _ = sharded(None)
    healthy_msgs = healthy.extra["messages"]
    reduction = base_msgs / healthy_msgs if healthy_msgs else float("inf")
    byte_reduction = (
        base_log.bytes_total / healthy.extra["message_bytes"]
        if healthy.extra["message_bytes"]
        else float("inf")
    )
    horizon = args.horizon if args.horizon else max(1, healthy.rounds)
    if (
        args.min_message_reduction is not None
        and reduction < args.min_message_reduction
    ):
        failures.append(
            f"message reduction x{reduction:.2f} below required "
            f"x{args.min_message_reduction:.2f}"
        )

    if args.check_null:
        null_run, null_sink = sharded(PartitionSchedule.null(args.regions))
        _, plain_sink = sharded(None)
        null_stream = [e.to_dict() for e in null_sink.events]
        plain_stream = [e.to_dict() for e in plain_sink.events]
        if null_stream != plain_stream:
            failures.append(
                "null partition schedule diverges from the unpartitioned "
                f"run ({len(null_stream)} vs {len(plain_stream)} events)"
            )
        elif null_run.extra["messages"] != healthy_msgs:
            failures.append(
                "null partition schedule changes the message count "
                f"({null_run.extra['messages']} vs {healthy_msgs})"
            )

    if args.plan:
        loaded = PartitionSchedule.from_dict(
            json.loads(Path(args.plan).read_text())
        )
        sweeps = [(None, loaded)]
    else:
        fractions = args.fraction or [0.0, 0.25, 0.5]
        sweeps = [
            (
                fraction,
                PartitionSchedule.random(
                    n_regions=args.regions,
                    horizon=horizon,
                    seed=args.partition_seed,
                    partition_fraction=fraction,
                    mean_width=args.mean_width,
                    n_islands=args.islands,
                    crash_rate=args.crash_rate,
                ),
            )
            for fraction in fractions
        ]

    rows = []
    runs = []
    sink = obs_events.ColumnarSink()
    for fraction, plan in sweeps:
        label = "file" if fraction is None else f"{fraction:.2f}"
        result, sink = sharded(plan)
        feasible = True
        try:
            check_state(result.state)
        except Exception as exc:
            feasible = False
            failures.append(f"fraction {label}: infeasible scheme: {exc}")
        audit = audit_sharded_events(sink.events)
        if not audit.ok:
            failures.append(
                f"fraction {label}: sharded audit FAIL "
                f"({len(audit.violations)} violations)"
            )
        degradation = result.otc / baseline.otc if baseline.otc else 1.0
        if (
            args.max_degradation is not None
            and degradation > args.max_degradation
        ):
            failures.append(
                f"fraction {label}: OTC degradation x{degradation:.4f} "
                f"exceeds bound x{args.max_degradation:.4f}"
            )
        msgs = result.extra["messages"]
        ratio = base_msgs / msgs if msgs else float("inf")
        rows.append(
            [
                label,
                result.extra["windows"],
                result.extra["heals"],
                result.extra["conflicts"],
                result.extra["revocations"],
                result.extra["crashes_injected"],
                f"{result.otc:,.0f}",
                f"x{degradation:.4f}",
                result.rounds,
                msgs,
                f"x{ratio:.2f}",
                "PASS" if audit.ok else "FAIL",
            ]
        )
        runs.append(
            {
                "fraction": fraction,
                "schedule": plan.to_dict(),
                "otc": result.otc,
                "otc_degradation": degradation,
                "rounds": result.rounds,
                "messages": msgs,
                "message_bytes": result.extra["message_bytes"],
                "message_counts": dict(
                    sorted(result.extra["message_counts"].items())
                ),
                "message_reduction": ratio,
                "feasible": feasible,
                "audit_ok": audit.ok,
                "audit_violations": [str(v) for v in audit.violations],
                "windows": result.extra["windows"],
                "heals": result.extra["heals"],
                "divergent": result.extra["divergent"],
                "conflicts": result.extra["conflicts"],
                "revocations": result.extra["revocations"],
                "refunded_capacity": result.extra["refunded_capacity"],
                "refunded_payment": result.extra["refunded_payment"],
                "reauctioned": result.extra["reauctioned"],
                "elections": result.extra["elections"],
                "recoveries": result.extra["recoveries"],
                "crashes_injected": result.extra["crashes_injected"],
            }
        )

    print(
        render_table(
            [
                "fraction",
                "windows",
                "heals",
                "conflicts",
                "revoked",
                "crashes",
                "OTC",
                "degradation",
                "rounds",
                "msgs",
                "reduction",
                "audit",
            ],
            rows,
            title=f"shard campaign on {instance.name} (M={m}, "
            f"N={instance.n_objects}, k={args.regions}, shard seed "
            f"{args.shard_seed}, partition seed {args.partition_seed})",
        )
    )
    print(
        f"single central: {base_msgs} messages / {base_log.bytes_total} "
        f"bytes in {baseline.rounds} rounds"
    )
    print(
        f"sharded (healthy): {healthy_msgs} messages / "
        f"{healthy.extra['message_bytes']} bytes in {healthy.rounds} rounds "
        f"(reduction x{reduction:.2f} msgs, x{byte_reduction:.2f} bytes)"
    )

    report = {
        "kind": "repro-shard",
        "instance": _campaign_instance_meta(instance, args),
        "scale": args.scale,
        "regions": args.regions,
        "shard_seed": args.shard_seed,
        "partition_seed": args.partition_seed,
        "baseline": {
            "otc": baseline.otc,
            "rounds": baseline.rounds,
            "messages": base_msgs,
            "bytes": base_log.bytes_total,
        },
        "healthy": {
            "otc": healthy.otc,
            "rounds": healthy.rounds,
            "messages": healthy_msgs,
            "bytes": healthy.extra["message_bytes"],
        },
        "message_reduction": reduction,
        "byte_reduction": byte_reduction,
        "gates": {
            "max_degradation": args.max_degradation,
            "min_message_reduction": args.min_message_reduction,
            "check_null": bool(args.check_null),
        },
        "runs": runs,
    }
    if args.plan_out:
        plans = {
            ("file" if f is None else f"{f:g}"): p.to_dict()
            for f, p in sweeps
        }
        Path(args.plan_out).write_text(json.dumps(plans, indent=2) + "\n")
        print(f"wrote partition schedule(s) -> {args.plan_out}")
    return _finish_campaign(
        args, label="shard", report=report, failures=failures, sink=sink
    )


def cmd_resilience(args: argparse.Namespace) -> int:
    """Composed failure-plane survivability campaign.

    Runs each selected :class:`~repro.runtime.scenario.Scenario` —
    curated catalog entries and/or ``--lottery`` random compositions —
    end to end over the sharded serving stack with the online
    invariant monitor armed, then gates on availability, invariant
    violations, the composed audits, the degradation budget and
    detection recall.  A failing scenario is greedily shrunk (drop
    planes, halve the workload, bisect the horizon) to a minimal
    still-failing ``<name>_scenario.json`` repro artifact unless
    ``--no-shrink``.  Deterministic like the other campaigns: every
    plane draws from its own substream of the scenario seed and the
    event log runs on the logical clock, so same-argument runs (and
    the ``--report`` JSON) are byte-for-byte identical.
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

    scenarios: list[Scenario] = []
    for name in args.scenario or ():
        if name not in CATALOG:
            print(
                f"unknown scenario {name!r}; catalog: "
                f"{', '.join(CATALOG)}",
                file=sys.stderr,
            )
            return 2
        scenarios.append(CATALOG[name])
    if not scenarios:
        scenarios.extend(CATALOG.values())
    for i in range(args.lottery):
        scenarios.append(Scenario.random(args.lottery_seed + i))

    rows = []
    runs = []
    failures: list[str] = []
    sink = None
    out_base = Path(args.out_dir) if args.out_dir else Path(".")
    for sc in scenarios:
        try:
            outcome = run_scenario(sc, strict=args.strict)
        except ReproError as exc:
            failures.append(f"{sc.name}: aborted: {exc}")
            rows.append([sc.name, "-", "-", "-", "-", "-", "-", "ERROR"])
            runs.append(
                {"scenario": sc.to_dict(), "error": str(exc), "ok": False}
            )
            scenario_failed = True
        else:
            sink = outcome.monitor
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
            rows.append(
                [
                    sc.name,
                    planes,
                    f"{r['serving']['availability']:.4f}",
                    r["invariants"]["violations"],
                    f"{r['recovery']['mttr']:.1f}",
                    f"{r['recovery']['degraded_fraction']:.3f}",
                    f"{r['detection']['recall']:.3f}",
                    "PASS" if outcome.ok else "FAIL",
                ]
            )
            runs.append(r)
            scenario_failed = not outcome.ok
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
                "planes",
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
    report = {
        "kind": "repro-resilience",
        "catalog": sorted(CATALOG),
        "lottery": args.lottery,
        "lottery_seed": args.lottery_seed,
        "strict": bool(args.strict),
        "runs": runs,
    }
    return _finish_campaign(
        args, label="resilience", report=report, failures=failures, sink=sink
    )


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
    p.add_argument(
        "--engine",
        choices=list(ENGINE_NAMES),
        default="auto",
        help="AGT-RAM benefit engine (ignored by other algorithms)",
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
        "--engine",
        choices=list(ENGINE_NAMES),
        default="auto",
        help="AGT-RAM benefit engine (default auto: vectorized when available)",
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
        help="verify a recorded event log offline (winner/payment/capacity), "
        "or prove naive/vectorized engine equivalence",
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
        "from the region tags plus the cross-shard reconciliation pass",
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
        "chaos",
        help="seeded fault-injection campaign vs a fault-free baseline",
    )
    _add_instance_args(p)
    p.add_argument(
        "--fault-seed", type=int, default=0, dest="fault_seed",
        help="seed for the fault schedule and the lossy channel",
    )
    p.add_argument(
        "--horizon", type=int, default=200,
        help="protocol rounds covered by the random schedule (default 200)",
    )
    p.add_argument("--drop", type=float, default=0.1,
                   help="per-transmission drop probability (default 0.1)")
    p.add_argument("--delay", type=float, default=0.05,
                   help="past-deadline delay probability (default 0.05)")
    p.add_argument("--duplicate", type=float, default=0.05,
                   help="duplicate-delivery probability (default 0.05)")
    p.add_argument("--crash-rate", type=float, default=0.02, dest="crash_rate",
                   help="per-agent per-round crash probability (default 0.02)")
    p.add_argument("--mean-outage", type=float, default=3.0, dest="mean_outage",
                   help="mean crash outage length in rounds (default 3)")
    p.add_argument("--straggler-rate", type=float, default=0.02,
                   dest="straggler_rate",
                   help="per-agent per-round straggler probability")
    p.add_argument("--central-crash-rate", type=float, default=0.0,
                   dest="central_crash_rate",
                   help="per-round central-crash probability (default 0)")
    p.add_argument("--central-crash-round", type=int, action="append",
                   dest="central_crash_round", metavar="ROUND",
                   help="crash the central at this round (repeatable)")
    p.add_argument("--quorum", type=float, default=0.5,
                   help="fraction of expected bids required to commit")
    p.add_argument("--max-retries", type=int, default=2, dest="max_retries",
                   help="bid retransmissions before the deadline (default 2)")
    p.add_argument("--max-stalled-rounds", type=int, default=200,
                   dest="max_stalled_rounds",
                   help="consecutive stalls before giving up (default 200)")
    p.add_argument("--checkpoint-period", type=int, default=8,
                   dest="checkpoint_period",
                   help="central checkpoint every K commits; 0 disables")
    p.add_argument("--max-degradation", type=float, default=None,
                   dest="max_degradation",
                   help="fail (exit 1) if chaos OTC exceeds fault-free OTC "
                   "by more than this ratio (e.g. 1.05)")
    p.add_argument("--report", help="write the full chaos report JSON here")
    p.add_argument("--fault-log", dest="fault_log",
                   help="write the fault-plan + injection summary JSON here")
    _add_out_dir_arg(p)
    _add_export_args(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "adversary",
        help="seeded Byzantine-agent campaign vs the honest baseline",
    )
    _add_instance_args(p)
    p.add_argument(
        "--adv-seed", type=int, default=0, dest="adv_seed",
        help="seed for adversary selection and behaviour (default 0)",
    )
    p.add_argument(
        "--fraction", type=float, action="append", metavar="F",
        help="fraction of agents made Byzantine; repeat to sweep "
        "(default: one run at 0.25)",
    )
    p.add_argument(
        "--behaviors", nargs="+", choices=list(BEHAVIORS), metavar="NAME",
        help=f"restrict the behaviour mix (default: all of {', '.join(BEHAVIORS)})",
    )
    p.add_argument(
        "--factor", type=float, default=2.0,
        help="inflation/deflation factor for misreports (default 2.0)",
    )
    p.add_argument(
        "--activity", type=float, default=1.0,
        help="per-round probability an adversary misbehaves (default 1.0)",
    )
    p.add_argument(
        "--strikes", type=int, default=3,
        help="offences before quarantine (default 3)",
    )
    p.add_argument(
        "--probation", type=int, default=20,
        help="quarantine length in protocol rounds (default 20)",
    )
    p.add_argument(
        "--max-quarantines", type=int, default=3, dest="max_quarantines",
        help="quarantines before permanent expulsion (default 3)",
    )
    p.add_argument(
        "--min-recall", type=float, default=None, dest="min_recall",
        help="fail (exit 1) if the detectors flag less than this "
        "fraction of injected manipulations (e.g. 0.95)",
    )
    p.add_argument(
        "--max-degradation", type=float, default=None,
        dest="max_degradation",
        help="fail (exit 1) if adversarial OTC exceeds the honest OTC "
        "by more than this ratio (e.g. 1.10)",
    )
    p.add_argument("--report", help="write the full campaign report JSON here")
    _add_out_dir_arg(p)
    _add_export_args(p)
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser(
        "serve",
        help="resilient online serving campaign with SLO gates",
    )
    _add_instance_args(p)
    # Serving defaults: a smoke-sized instance replicated deeply enough
    # (capacity 0.5) that failover has somewhere to go.
    p.set_defaults(servers=10, objects=30, requests=4000, capacity=0.5)
    p.add_argument(
        "--workload", default="worldcup", choices=list(SERVE_WORKLOADS),
        help="traffic family to serve (default worldcup; drift and "
        "flashcrowd move mid-campaign and exercise re-auction)",
    )
    p.add_argument(
        "--serve-requests", type=int, default=4000, dest="serve_requests",
        help="requests to stream through the serving loop (default 4000)",
    )
    p.add_argument(
        "--serve-seed", type=int, default=11, dest="serve_seed",
        help="seed for the request stream and the latency model",
    )
    p.add_argument(
        "--fault-seed", type=int, default=0, dest="fault_seed",
        help="seed for the random fault schedule (with --crash-rate etc.)",
    )
    p.add_argument(
        "--crash-rate", type=float, default=0.0, dest="crash_rate",
        help="per-server per-round crash probability (default 0: no faults)",
    )
    p.add_argument(
        "--mean-outage", type=float, default=2.0, dest="mean_outage",
        help="mean crash outage length in serving rounds (default 2)",
    )
    p.add_argument(
        "--straggler-rate", type=float, default=0.0, dest="straggler_rate",
        help="per-server per-round straggler probability (default 0)",
    )
    p.add_argument(
        "--requests-per-round", type=int, default=500,
        dest="requests_per_round",
        help="request ticks per fault-schedule round (default 500)",
    )
    p.add_argument(
        "--timeout", type=float, default=None,
        help="attempt deadline (default: auto from the cost diameter)",
    )
    p.add_argument(
        "--max-attempts", type=int, default=3, dest="max_attempts",
        help="attempts per request before it fails (default 3)",
    )
    p.add_argument(
        "--hedge-quantile", type=float, default=0.95, dest="hedge_quantile",
        help="hedge reads outliving this trailing quantile (default 0.95)",
    )
    p.add_argument(
        "--no-hedge", action="store_true", dest="no_hedge",
        help="disable hedged reads",
    )
    p.add_argument(
        "--rate", type=float, default=1.0,
        help="token-bucket refill per request tick (default 1.0)",
    )
    p.add_argument(
        "--burst", type=float, default=50.0,
        help="token-bucket depth (default 50)",
    )
    p.add_argument(
        "--drift-window", type=int, default=800, dest="drift_window",
        help="requests per drift-detection window (default 800)",
    )
    p.add_argument(
        "--drift-threshold", type=float, default=0.15,
        dest="drift_threshold",
        help="total-variation distance that triggers a re-auction",
    )
    p.add_argument(
        "--drift-top-k", type=int, default=8, dest="drift_top_k",
        help="objects re-auctioned per drift trigger (default 8)",
    )
    p.add_argument(
        "--max-reauctions", type=int, default=3, dest="max_reauctions",
        help="re-auction budget; 0 disables drift response (default 3)",
    )
    p.add_argument(
        "--min-availability", type=float, default=None,
        dest="min_availability",
        help="fail (exit 1) if served/admitted drops below this",
    )
    p.add_argument(
        "--max-p99", type=float, default=None, dest="max_p99",
        help="fail (exit 1) if p99 latency exceeds this",
    )
    p.add_argument("--report", help="write the serving report JSON here")
    _add_out_dir_arg(p)
    _add_export_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "shard",
        help="partition-tolerance campaign for the sharded central",
    )
    _add_instance_args(p)
    p.add_argument(
        "--scale",
        choices=sorted(BENCH_SCALE_CONFIGS),
        default=None,
        help="run on a bench preset instead of the instance knobs",
    )
    p.add_argument(
        "--regions", type=int, default=8,
        help="regional sub-centrals k (default 8)",
    )
    p.add_argument(
        "--shard-seed", type=int, default=2007, dest="shard_seed",
        help="seed for the proximity partition of servers into regions",
    )
    p.add_argument(
        "--partition-seed", type=int, default=2007, dest="partition_seed",
        help="seed for the random partition schedule (default 2007)",
    )
    p.add_argument(
        "--fraction", type=float, action="append", metavar="F",
        help="fraction of rounds spent partitioned; repeat to sweep "
        "(default: 0.0 0.25 0.5)",
    )
    p.add_argument(
        "--islands", type=int, default=2,
        help="islands per partition window (default 2)",
    )
    p.add_argument(
        "--mean-width", type=float, default=6.0, dest="mean_width",
        help="mean partition window width in rounds (default 6)",
    )
    p.add_argument(
        "--crash-rate", type=float, default=0.0, dest="crash_rate",
        help="per-(round, region) regional-central crash probability",
    )
    p.add_argument(
        "--horizon", type=int, default=None,
        help="rounds covered by random schedules (default: the healthy "
        "sharded run's length)",
    )
    p.add_argument(
        "--engine", choices=list(ENGINE_NAMES), default="auto",
        help="benefit engine for the regional games (default auto)",
    )
    p.add_argument(
        "--plan", help="run exactly this partition schedule JSON instead "
        "of sweeping random ones",
    )
    p.add_argument(
        "--plan-out", dest="plan_out",
        help="write the swept partition schedule(s) JSON here",
    )
    p.add_argument(
        "--check-null", action="store_true", dest="check_null",
        help="verify the null schedule's event stream is byte-identical "
        "to the unpartitioned sharded run",
    )
    p.add_argument(
        "--max-degradation", type=float, default=None,
        dest="max_degradation",
        help="fail (exit 1) if any swept run's OTC exceeds the "
        "single-central OTC by more than this ratio (e.g. 1.05)",
    )
    p.add_argument(
        "--min-message-reduction", type=float, default=2.0,
        dest="min_message_reduction",
        help="fail (exit 1) if the healthy sharded run sends more than "
        "1/this of the single-central messages (default 2.0; pass 0 to "
        "disable)",
    )
    p.add_argument("--report", help="write the full campaign report JSON here")
    _add_out_dir_arg(p)
    _add_export_args(p)
    p.set_defaults(func=cmd_shard)

    p = sub.add_parser(
        "resilience",
        help="composed failure-plane survivability campaign with shrinking",
    )
    p.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="run this catalog scenario (repeatable; default: the whole "
        "catalog)",
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
    _add_out_dir_arg(p)
    _add_export_args(p)
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

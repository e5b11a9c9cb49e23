"""The benchmark's three workloads, each driving the library's public calls.

A workload's inputs are *draws*: ``setup(seed)`` builds one draw from one
seed (everything before the timed window, timed as ``setup_s``), and
``iterate(draw)`` runs one pass of the timed window on it.  A pass times
two things as callers run them:

* the workload's *headline call* — untraced ``run_agt_ram`` (flat-large),
  ``serve`` (serve-flashcrowd) or ``run_scenario`` (resilience-composed);
* the workload's *audited path* — that run's event log checked end to end.

A pass also returns digests of every deterministic output (the placement,
the event log, the report counters).  The runner requires them to repeat
across passes and, in the traced run, to equal the untraced pass's, which
proves the layer wrappers did not change the program.

Library functions are looked up through their modules at call time, so
the traced run's wrappers (``layers.install``) take effect without any
change to the library.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import pickle
import statistics
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from repro import serving
from repro.core import agt_ram
from repro.drp import cost
from repro.experiments import instances
from repro.obs import audit, events, export, report, tracer
from repro.runtime import faults, scenario


@dataclasses.dataclass
class Iteration:
    """One pass of the timed window over one draw."""

    #: Work units the headline call completed, and its wall time.
    ops: float
    run_s: float
    #: Events through the audited path, and its wall time.
    events: int
    check_s: float
    #: Wall time of every timed call in the pass together.
    timed_s: float
    #: Operations checked for correctness: audited rounds (flat-large)
    #: or offered requests.
    attempted: int
    #: Deterministic outputs; must repeat exactly.
    digests: dict[str, str]
    #: Deterministic values reported as metrics or printed.
    values: dict[str, float]
    #: Correctness checks that failed in this pass.
    failures: list[str]
    #: Wall times printed for the reader.
    walls: dict[str, float]


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _file_sha(path: Path) -> str:
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def _placement_digest(result: Any) -> str:
    return _sha(
        np.ascontiguousarray(result.state.x).tobytes(),
        np.ascontiguousarray(result.extra["payments"]).tobytes(),
    )


def _phase(tr: Any, name: str):
    return tr.memory.phase(name) if tr is not None else nullcontext()


def _window(tr: Any):
    return tr.window() if tr is not None else nullcontext()


def _no_mark() -> None:
    return None


def savings_pct(primaries_otc: float, otc: float) -> float:
    """OTC saved against the primaries-only scheme, as ``savings_percent``."""
    return 100.0 * (primaries_otc - otc) / primaries_otc if primaries_otc else 0.0


def untraced_placement(instance: Any) -> tuple[Any, float]:
    """One ``run_agt_ram`` on the path callers run: no tracer, no sink."""
    if tracer.current().enabled or events.current().enabled:
        raise RuntimeError("place_s must time the untraced tight loop")
    t0 = perf_counter()
    result = agt_ram.run_agt_ram(instance)
    return result, perf_counter() - t0


class FlatLarge:
    """The large preset, placed flat, then evented, exported and audited."""

    name = "flat-large"
    default_seed = 2007
    #: Input draws per seed, and set-ups per draw (each one a ``setup_s``
    #: sample).  Three large instances already hold ~250 MiB.
    draws = 3
    builds = 2
    #: Untraced placements per pass; the pass reports their median.
    place_repeats = 3
    shape = "large preset, 640 servers x 3200 objects, R/W 0.75, C 25%"

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir

    def setup(self, seed: int) -> dict[str, Any]:
        inst = instances.paper_instance(report.bench_config("large").with_(seed=seed))
        # Warm-up: one placement fills the instance's lazy caches.
        agt_ram.run_agt_ram(inst)
        return {"instance": inst}

    def iterate(self, draw: dict[str, Any], tr: Any = None, mark=_no_mark) -> Iteration:
        inst = draw["instance"]
        walls = []
        with _window(tr), _phase(tr, "clearing"):
            for _ in range(self.place_repeats):
                result, dt = untraced_placement(inst)
                walls.append(dt)
        place_s = statistics.median(walls)
        mark()

        path = self.out_dir / "flat-large.rev"
        sink = events.ColumnarSink()
        with _window(tr):
            t0 = perf_counter()
            with events.logical_time(), events.capture(sink):
                evented = agt_ram.run_agt_ram(inst)
            evented_s = perf_counter() - t0
        mark()
        with _window(tr), _phase(tr, "export"):
            t0 = perf_counter()
            export.write_events_binary(sink.iter_events(), path)
            write_s = perf_counter() - t0
        mark()
        with _window(tr), _phase(tr, "audit"):
            t0 = perf_counter()
            verdict = audit.audit_file(path)
            audit_s = perf_counter() - t0
        audited_s = evented_s + write_s + audit_s

        digests = {
            "placement": _placement_digest(result),
            "evented_placement": _placement_digest(evented),
            "revb": _file_sha(path),
        }
        export_bytes = path.stat().st_size
        path.unlink()
        failures = []
        if digests["evented_placement"] != digests["placement"]:
            failures.append("evented placement differs from the untraced one")
        if not verdict.ok:
            failures.append(f"streaming audit: {len(verdict.violations)} violations")
        return Iteration(
            ops=result.rounds,
            run_s=place_s,
            events=len(sink),
            check_s=audited_s,
            timed_s=sum(walls) + audited_s,
            attempted=verdict.rounds_audited,
            digests=digests,
            values={
                "savings_pct": result.savings_percent,
                "audit_rounds": verdict.rounds_audited,
                "audit_violations": len(verdict.violations),
                "columnar_bytes": sink.nbytes,
                "export_bytes": export_bytes,
            },
            failures=failures,
            walls={"place_s": place_s, "audited_s": audited_s, "evented_place_s": evented_s},
        )


class ServeFlashcrowd:
    """The medium preset serving a flash crowd under crash/straggler faults."""

    name = "serve-flashcrowd"
    default_seed = 2007
    n_requests = 60_000
    draws = 5
    builds = 1
    #: The audits take ~0.2 s; a pass repeats them and keeps the median.
    audit_repeats = 5
    shape = "medium preset 320x1600, flashcrowd traffic, 60k requests, 3% crash/straggler"

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir

    def _traffic(self, base: Any, seed: int) -> Any:
        return serving.make_traffic("flashcrowd", base, self.n_requests, seed=seed)

    def setup(self, seed: int) -> dict[str, Any]:
        base = instances.paper_instance(report.bench_config("medium").with_(seed=seed))
        instance = serving.with_demand(base, self._traffic(base, seed))
        # The message-level simulator cmd_serve uses would need thousands
        # of rounds on this demand; the flat mechanism places it instead.
        placement = agt_ram.run_agt_ram(instance)
        config = serving.ServeConfig()
        plan = faults.FaultSchedule.random(
            n_agents=instance.n_servers,
            horizon=math.ceil(self.n_requests / config.requests_per_round),
            seed=seed,
            crash_rate=0.03,
            mean_outage=3.0,
            straggler_rate=0.03,
        )
        return {
            "seed": seed,
            "base": base,
            "instance": instance,
            "placement": placement,
            "config": config,
            "faults": plan,
        }

    def iterate(self, draw: dict[str, Any], tr: Any = None, mark=_no_mark) -> Iteration:
        seed = draw["seed"]
        # serve() consumes the stream; a fresh one replays the same requests.
        stream = self._traffic(draw["base"], seed).stream
        if tr is not None:
            stream = tr.spans.iterate("serving.stream", stream, tr.request_gaps)
        sink = events.ColumnarSink()
        with _window(tr):
            t0 = perf_counter()
            with _phase(tr, "serving"), events.logical_time(), events.capture(sink):
                rep = serving.serve(
                    draw["instance"],
                    draw["placement"].state,
                    stream,
                    config=draw["config"],
                    faults=draw["faults"],
                    seed=seed,
                    workload="flashcrowd",
                    n_requests=self.n_requests,
                )
            serve_s = perf_counter() - t0
        mark()
        audit_walls = []
        for _ in range(1 if tr is not None else self.audit_repeats):
            with _window(tr):
                t0 = perf_counter()
                log = sink.events
                serving_audit = audit.audit_serving_events(log)
                mechanism_audit = audit.audit_events(log)
                audit_walls.append(perf_counter() - t0)
        audits_s = statistics.median(audit_walls)

        failures = []
        if not serving_audit.ok:
            failures.append(f"serving audit: {len(serving_audit.violations)} violations")
        if not mechanism_audit.ok:
            failures.append(f"mechanism audit: {len(mechanism_audit.violations)} violations")
        return Iteration(
            ops=rep.n_requests,
            run_s=serve_s,
            events=len(log),
            check_s=audits_s,
            timed_s=serve_s + audits_s,
            attempted=rep.n_requests,
            digests={
                "placement": _placement_digest(draw["placement"]),
                "events": _sha(pickle.dumps(log, protocol=5)),
                "report": _sha(json.dumps(rep.to_dict(), sort_keys=True).encode()),
            },
            values={
                "savings_pct": draw["placement"].savings_percent,
                "availability": rep.availability,
                "model_p99_latency": rep.p99,
                "requests": rep.n_requests,
                "failed": rep.failed,
                "shed": rep.shed,
                "failovers": rep.failovers,
                "timeouts": rep.timeouts,
                "hedges": rep.hedges,
                "columnar_bytes": sink.nbytes,
                "audit_violations": len(serving_audit.violations)
                + len(mechanism_audit.violations),
            },
            failures=failures,
            walls={"serve_s": serve_s, "audits_s": audits_s},
        )


class ResilienceComposed:
    """The showcase composition scaled to 160x800 over eight regions."""

    name = "resilience-composed"
    default_seed = 23
    draws = 3
    builds = 2
    shape = "showcase scaled to 160x800, 8 regions, flashcrowd 20k requests, all planes"

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir

    def scenario(self, seed: int) -> Any:
        return dataclasses.replace(
            scenario.CATALOG["showcase"],
            name=self.name,
            seed=seed,
            servers=160,
            objects=800,
            requests=400_000,
            regions=8,
            # Covers the mechanism phase, so partitions and crashes can
            # land anywhere in it.
            horizon=1000,
            n_requests=20_000,
            faults=scenario.FaultPlane(
                crash_rate=0.02,
                straggler_rate=0.02,
                serving_crash_rate=0.01,
                serving_straggler_rate=0.02,
            ),
            adversary=scenario.AdversaryPlane(fraction=0.125),
            partition=scenario.PartitionPlane(fraction=0.3, mean_width=6.0, crash_rate=0.02),
        )

    def setup(self, seed: int) -> dict[str, Any]:
        sc = self.scenario(seed)
        # Warm-up: realize the planes once (the instance, traffic and
        # schedules run_scenario rebuilds) and require every plane to
        # materialize, so the workload really is composed.
        mat = scenario.materialize(sc)
        missing = [
            name
            for name in ("fault_plan", "serving_faults", "adversary", "partition")
            if getattr(mat, name) is None
        ]
        if missing:
            raise RuntimeError(f"scenario planes realized to nothing: {missing}")
        return {"scenario": sc, "primaries_otc": cost.primary_only_otc(mat.instance)}

    def iterate(self, draw: dict[str, Any], tr: Any = None, mark=_no_mark) -> Iteration:
        path = self.out_dir / "resilience-composed.rev"
        with _window(tr):
            t0 = perf_counter()
            out = scenario.run_scenario(draw["scenario"])
            scenario_s = perf_counter() - t0
        mark()
        with _window(tr):
            t0 = perf_counter()
            with _phase(tr, "export"):
                export.write_events_binary(out.monitor.iter_events(), path)
            verdict = audit.audit_sharded_file(path)
            check_s = perf_counter() - t0

        rep = out.report
        n_events = len(out.monitor)
        # Counted on untraced passes only, so that this extra expansion
        # of the log is not charged to the events layer; the traced run
        # reports the untraced pass's values, which its digests equal.
        winners = 0 if tr is not None else sum(
            1
            for e in itertools.islice(out.monitor.iter_events(), out.split)
            if isinstance(e, events.WinnerEvent)
        )
        failures = [f"scenario gate: {f}" for f in out.failures]
        if not verdict.ok:
            failures.append(f"offline sharded audit: {len(verdict.violations)} violations")
        digests = {
            "revb": _file_sha(path),
            "report": _sha(json.dumps(rep, sort_keys=True, default=str).encode()),
        }
        export_bytes = path.stat().st_size
        path.unlink()
        serving_rep = rep["serving"]
        return Iteration(
            ops=n_events,
            run_s=scenario_s,
            events=n_events,
            check_s=check_s,
            timed_s=scenario_s + check_s,
            attempted=serving_rep["n_requests"],
            digests=digests,
            values={
                "savings_pct": savings_pct(draw["primaries_otc"], rep["placement"]["otc"]),
                "availability": serving_rep["availability"],
                "model_p99_latency": serving_rep["p99"],
                "messages_per_commit": rep["placement"]["messages"] / max(1, winners),
                "mttr_rounds": rep["recovery"]["mttr"],
                "requests": serving_rep["n_requests"],
                "failed": serving_rep["failed"],
                "shed": serving_rep["shed"],
                "failovers": serving_rep["failovers"],
                "timeouts": serving_rep["timeouts"],
                "hedges": serving_rep["hedges"],
                "invariant_violations": rep["invariants"]["violations"],
                "invariant_events": n_events,
                "injected": rep["detection"]["injected"],
                "flagged": rep["detection"]["flagged"],
                "recall": rep["detection"]["recall"],
                "incidents": rep["recovery"]["n_incidents"],
                "columnar_bytes": out.monitor.nbytes,
                "export_bytes": export_bytes,
                "audit_violations": len(verdict.violations),
            },
            failures=failures,
            walls={"scenario_s": scenario_s, "export_audit_s": check_s},
        )


WORKLOADS = {w.name: w for w in (FlatLarge, ServeFlashcrowd, ResilienceComposed)}


def make(name: str, out_dir: Path) -> Any:
    return WORKLOADS[name](out_dir)

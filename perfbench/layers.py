"""Span tracing for the benchmark's traced run, from the benchmark's own files.

The traced run wraps the public calls of each layer (:func:`install`) for
the duration of its set-up and of one iteration, and restores the
originals afterwards, so the untraced runs execute the library exactly as
shipped.  Every wrapper opens a span: its duration is the layer's *busy*
time, and its duration minus the spans nested inside it is the layer's
*self* time.  Iterators (lazy event expansion, binary decoding, the
serving request stream) are timed per ``next()`` call, so generator work
is charged to the layer that produces it rather than to its consumer.

Per-phase peak RSS resets the kernel's high-water mark through
``/proc/self/clear_refs`` before a phase and reads ``VmHWM`` after it;
where that file is not writable the figure is the process-wide
``ru_maxrss`` instead and is labelled cumulative.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, Optional


class Spans:
    """Busy time, self time and call counts per span name."""

    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.max_s: dict[str, float] = defaultdict(float)
        #: Total duration of spans opened with no span around them, while
        #: a timed window is open (see :meth:`Trace.window`).
        self.top_level_s = 0.0
        self.window_open = False
        self._children: list[float] = []

    def enter(self) -> float:
        self._children.append(0.0)
        return perf_counter()

    def exit(self, name: str, t0: float) -> float:
        """Close the innermost span; returns the clock reading at exit."""
        t1 = perf_counter()
        dt = t1 - t0
        nested = self._children.pop()
        self.busy[name] += dt
        self.self_s[name] += dt - nested
        self.calls[name] += 1
        if dt > self.max_s[name]:
            self.max_s[name] = dt
        if self._children:
            self._children[-1] += dt
        elif self.window_open:
            self.top_level_s += dt
        return t1

    def iterate(
        self,
        name: str,
        iterable: Iterable[Any],
        gaps: Optional[list[float]] = None,
    ) -> Iterator[Any]:
        """Yield from ``iterable``, timing each ``next()`` as a span.

        With ``gaps``, the consumer's time between two pulls (what it
        spent on the previous item, generator time excluded) is appended
        per item.
        """
        it = iter(iterable)
        last: Optional[float] = None
        while True:
            t0 = self.enter()
            if gaps is not None and last is not None:
                gaps.append(t0 - last)
            try:
                item = next(it)
            except StopIteration:
                self.exit(name, t0)
                return
            last = self.exit(name, t0)
            yield item


def _wrap(
    spans: Spans,
    name: str | Callable[..., str],
    fn: Callable[..., Any],
    on_result: Optional[Callable[[Any, tuple], None]] = None,
) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = name(*args, **kwargs) if callable(name) else name
        t0 = spans.enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            spans.exit(span, t0)
        if on_result is not None:
            on_result(result, args)
        return result

    return wrapper


def _wrap_iter(spans: Spans, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
        return spans.iterate(name, fn(*args, **kwargs))

    return wrapper


class Patches:
    """Installs wrappers and restores every original on :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def function(self, module: str, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``module.attr`` and every ``repro`` module global bound
        to the same function object (``from x import f`` copies)."""
        original = getattr(importlib.import_module(module), attr)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def method(self, cls: type, attr: str, make: Callable[[Any], Any]) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Trace:
    """What one traced iteration records."""

    def __init__(self) -> None:
        self.spans = Spans()
        #: Counters the wrappers read off call results (rounds, shard extras).
        self.facts: dict[str, float] = defaultdict(float)
        self.memory = PhaseMemory()
        #: Per-request loop time between two pulls of the serving stream.
        self.request_gaps: list[float] = []

    @contextmanager
    def window(self) -> Iterator[None]:
        """Mark a timed region: its top-level spans count as attributed."""
        self.spans.window_open = True
        try:
            yield
        finally:
            self.spans.window_open = False


def install(spans: Spans, facts: dict[str, float]) -> Patches:
    """Wrap the public calls of every layer; returns the undo handle."""
    from repro.drp import delta, state
    from repro.obs import events
    from repro.runtime import adversary, invariants, shard
    from repro.serving import drift, policies, router

    p = Patches()

    # build
    p.function("repro.topology", "make_topology", lambda f: _wrap(spans, "build.topology", f))
    p.function("repro.workload.synthetic", "synthesize_workload",
               lambda f: _wrap(spans, "build.workload", f))
    p.function("repro.drp.instance", "build_instance", lambda f: _wrap(spans, "build.instance", f))
    p.function("repro.serving.streams", "make_traffic", lambda f: _wrap(spans, "build.traffic", f))

    # engine and state
    p.function("repro.drp.delta", "make_local_engine", lambda f: _wrap(spans, "engine.init", f))
    p.method(delta.DeltaBenefitEngine, "notify_allocation",
             lambda f: _wrap(spans, "engine.notify", f))
    p.method(state.ReplicationState, "add_replica", lambda f: _wrap(spans, "state.add_replica", f))
    p.method(state.ReplicationState, "copy", lambda f: _wrap(spans, "state.copy", f))

    # clearing: untraced-path placements; evented ones belong to the events layer
    def placement_span(*args: Any, **kwargs: Any) -> str:
        return "events.evented_place" if events.current().enabled else "clearing"

    def placement_result(result: Any, args: tuple) -> None:
        if not events.current().enabled:
            facts["clearing.rounds"] += result.rounds

    p.function("repro.core.agt_ram", "run_agt_ram",
               lambda f: _wrap(spans, placement_span, f, placement_result))

    # events
    def count_emit(result: Any, args: tuple) -> None:
        facts["events.emitted"] += 1

    def count_block(result: Any, args: tuple) -> None:
        facts["events.emitted"] += args[1].n_events

    p.method(events.ColumnarSink, "emit", lambda f: _wrap(spans, "events.emit", f, count_emit))
    p.method(events.ColumnarSink, "emit_block",
             lambda f: _wrap(spans, "events.emit", f, count_block))
    p.method(events.ColumnarSink, "iter_events", lambda f: _wrap_iter(spans, "events.expand", f))

    # export and audit
    p.function("repro.obs.export", "write_events_binary", lambda f: _wrap(spans, "export.write", f))
    p.function("repro.obs.export", "open_event_stream", lambda f: _wrap_iter(spans, "audit.decode", f))
    p.function("repro.obs.audit", "audit_file", lambda f: _wrap(spans, "audit.flat", f))
    p.function("repro.obs.audit", "audit_events", lambda f: _wrap(spans, "audit.mechanism", f))
    p.function("repro.obs.audit", "audit_serving_events", lambda f: _wrap(spans, "audit.serving", f))
    p.function("repro.obs.audit", "audit_sharded_events", lambda f: _wrap(spans, "audit.sharded", f))
    p.function("repro.obs.audit", "audit_sharded_file", lambda f: _wrap(spans, "audit.sharded", f))

    # serving
    p.function("repro.serving.loop", "serve", lambda f: _wrap(spans, "serving.loop", f))
    p.method(router.RequestRouter, "read_candidates", lambda f: _wrap(spans, "serving.route", f))
    p.method(router.RequestRouter, "write_target", lambda f: _wrap(spans, "serving.route", f))
    for cls, names in (
        (policies.TokenBucket, ("admit",)),
        (policies.EwmaHealth, ("healthy", "record")),
        (policies.QuantileTracker, ("observe", "quantile")),
        (policies.BackoffPolicy, ("delay",)),
        (drift.DriftDetector, ("observe", "drifted_objects", "rebase")),
    ):
        for name in names:
            p.method(cls, name, lambda f: _wrap(spans, "serving.policy", f))

    def reauction_result(result: Any, args: tuple) -> None:
        facts["reauction.rounds"] += result.rounds

    p.function("repro.core.reauction", "reauction_objects",
               lambda f: _wrap(spans, "reauction", f, reauction_result))

    # sharded central, trust boundary, invariants
    def shard_result(result: Any, args: tuple) -> None:
        facts["shard.rounds"] += result.rounds
        for key in ("messages", "message_bytes", "windows", "conflicts",
                    "revocations", "elections"):
            facts[f"shard.{key}"] += result.extra.get(key, 0)

    p.method(shard.ShardedAGTRam, "run", lambda f: _wrap(spans, "shard.run", f, shard_result))
    p.function("repro.runtime.shard", "reconcile_divergence",
               lambda f: _wrap(spans, "shard.reconcile", f))
    p.method(adversary.TrustBoundary, "screen", lambda f: _wrap(spans, "trust.screen", f))
    p.method(invariants.InvariantMonitor, "emit", lambda f: _wrap(spans, "invariants", f))
    p.method(invariants.InvariantMonitor, "emit_block", lambda f: _wrap(spans, "invariants", f))

    # scenario glue
    p.function("repro.runtime.scenario", "materialize",
               lambda f: _wrap(spans, "scenario.materialize", f))
    p.function("repro.obs.recovery", "recovery_accounting", lambda f: _wrap(spans, "recovery", f))
    return p


# -- peak RSS ------------------------------------------------------------------


def _vm_hwm_mb() -> Optional[float]:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def process_peak_rss_mb() -> float:
    """High-water RSS of this process in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PhaseMemory:
    """Peak RSS per phase, isolated where the kernel allows it."""

    def __init__(self) -> None:
        self.peaks: dict[str, float] = {}
        self.isolated = True

    def _reset(self) -> None:
        try:
            with open("/proc/self/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            self.isolated = False

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        self._reset()
        try:
            yield
        finally:
            hwm = _vm_hwm_mb() if self.isolated else None
            peak = hwm if hwm is not None else process_peak_rss_mb()
            if hwm is None:
                self.isolated = False
            self.peaks[name] = max(self.peaks.get(name, 0.0), peak)


# -- per-layer metrics -----------------------------------------------------------

#: Which end-to-end metric each layer's numbers should move, and where.
MOVES: dict[str, str] = {
    "build": "setup_s and peak_rss_mb; largest on flat-large",
    "engine": "ops_per_ref on flat-large; ops_per_ref on resilience-composed (a rebuild per fork and heal)",
    "state": "ops_per_ref on flat-large; ops_per_ref on resilience-composed (forks, heal replay)",
    "clearing": "ops_per_ref on flat-large; setup_s on serve-flashcrowd (its placement)",
    "events": "audit_events_per_ref on flat-large; ops_per_ref on serve-flashcrowd",
    "export": "audit_events_per_ref on flat-large and resilience-composed",
    "audit": "audit_events_per_ref on all three; ops_per_ref on resilience-composed",
    "serving": "ops_per_ref on serve-flashcrowd; a small share of ops_per_ref on resilience-composed",
    "reauction": "ops_per_ref on serve-flashcrowd and resilience-composed",
    "shard": "ops_per_ref on resilience-composed",
    "trust": "ops_per_ref on resilience-composed",
    "invariants": "ops_per_ref on resilience-composed",
    "scenario": "ops_per_ref on resilience-composed",
    "recovery": "ops_per_ref on resilience-composed",
    "outcome": "none: deterministic results; any change is a behaviour change",
    "residual": "none",
}

_OUTCOMES = ("savings_pct", "availability", "model_p99_latency", "messages_per_commit", "mttr_rounds")
_RESIDUALS = ("unattributed_s", "tracing_overhead_s")


def layer_of(metric: str) -> str:
    if metric in _OUTCOMES:
        return "outcome"
    if metric in _RESIDUALS:
        return "residual"
    return metric.split(".", 1)[0]


def _percentile_us(gaps: list[float], q: float) -> float:
    if not gaps:
        return 0.0
    ordered = sorted(gaps)
    return 1e6 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(
    spans: Spans,
    facts: dict[str, float],
    memory: PhaseMemory,
    request_gaps: list[float],
    values: dict[str, float],
    n_events: int,
    window_s: float,
    top_level_s: float,
    untraced_window_s: float,
) -> dict[str, float]:
    """Every per-layer metric of one traced run; 0 where a layer is unused."""
    busy, own, calls, fact = spans.busy, spans.self_s, spans.calls, facts
    peak = memory.peaks
    rounds = fact["clearing.rounds"]
    write_s = own["export.write"]
    return {
        "build.topology_s": busy["build.topology"],
        "build.workload_s": busy["build.workload"],
        "build.instance_s": busy["build.instance"],
        "build.traffic_s": busy["build.traffic"],
        "build.peak_rss_mb": peak.get("build", 0.0),
        "engine.init_s": busy["engine.init"],
        "engine.init_calls": calls["engine.init"],
        "engine.notify_s": busy["engine.notify"],
        "engine.notify_calls": calls["engine.notify"],
        "state.add_replica_s": busy["state.add_replica"],
        "state.add_replica_calls": calls["state.add_replica"],
        "state.copy_s": busy["state.copy"],
        "state.copy_calls": calls["state.copy"],
        "clearing.rounds": rounds,
        "clearing.self_s": own["clearing"],
        "clearing.us_per_round": 1e6 * own["clearing"] / rounds if rounds else 0.0,
        "clearing.peak_rss_mb": peak.get("clearing", 0.0),
        "events.evented_place_s": busy["events.evented_place"],
        "events.emit_s": busy["events.emit"],
        "events.emit_calls": calls["events.emit"],
        "events.emitted": fact["events.emitted"],
        "events.columnar_bytes": values.get("columnar_bytes", 0),
        "events.expand_s": busy["events.expand"],
        "export.write_s": write_s,
        "export.bytes": values.get("export_bytes", 0),
        "export.ns_per_event": 1e9 * write_s / n_events if calls["export.write"] else 0.0,
        "export.peak_rss_mb": peak.get("export", 0.0),
        "audit.flat_s": own["audit.flat"],
        "audit.decode_s": busy["audit.decode"],
        "audit.flat_rounds": values.get("audit_rounds", 0),
        "audit.flat_violations": values.get("audit_violations", 0) if calls["audit.flat"] else 0,
        "audit.flat_peak_rss_mb": peak.get("audit", 0.0),
        "audit.sharded_s": own["audit.sharded"],
        "audit.serving_s": busy["audit.serving"],
        "audit.mechanism_s": busy["audit.mechanism"],
        "serving.requests": values.get("requests", 0),
        "serving.failed": values.get("failed", 0) + values.get("shed", 0),
        "serving.request_us_p50": _percentile_us(request_gaps, 0.50),
        "serving.request_us_p99": _percentile_us(request_gaps, 0.99),
        "serving.route_s": busy["serving.route"],
        "serving.route_calls": calls["serving.route"],
        "serving.policy_s": busy["serving.policy"],
        "serving.stream_s": busy["serving.stream"],
        "serving.loop_self_s": own["serving.loop"],
        "serving.failovers": values.get("failovers", 0),
        "serving.timeouts": values.get("timeouts", 0),
        "serving.hedges": values.get("hedges", 0),
        "serving.peak_rss_mb": peak.get("serving", 0.0),
        "reauction.s": busy["reauction"],
        "reauction.calls": calls["reauction"],
        "reauction.rounds": fact["reauction.rounds"],
        "reauction.max_stall_ms": 1e3 * spans.max_s["reauction"],
        "shard.run_s": busy["shard.run"],
        "shard.self_s": own["shard.run"],
        "shard.rounds": fact["shard.rounds"],
        "shard.messages": fact["shard.messages"],
        "shard.message_bytes": fact["shard.message_bytes"],
        "shard.windows": fact["shard.windows"],
        "shard.conflicts": fact["shard.conflicts"],
        "shard.revocations": fact["shard.revocations"],
        "shard.elections": fact["shard.elections"],
        "shard.reconcile_s": busy["shard.reconcile"],
        "shard.reconcile_calls": calls["shard.reconcile"],
        "trust.screen_s": busy["trust.screen"],
        "trust.screen_calls": calls["trust.screen"],
        "trust.injected": values.get("injected", 0),
        "trust.flagged": values.get("flagged", 0),
        "trust.recall": values.get("recall", 0.0),
        "invariants.s": own["invariants"],
        "invariants.events": values.get("invariant_events", 0),
        "invariants.violations": values.get("invariant_violations", 0),
        "scenario.materialize_s": busy["scenario.materialize"],
        "recovery.s": busy["recovery"],
        "recovery.incidents": values.get("incidents", 0),
        "savings_pct": values.get("savings_pct", 0.0),
        "availability": values.get("availability", 0.0),
        "model_p99_latency": values.get("model_p99_latency", 0.0),
        "messages_per_commit": values.get("messages_per_commit", 0.0),
        "mttr_rounds": values.get("mttr_rounds", 0.0),
        "unattributed_s": window_s - top_level_s,
        "tracing_overhead_s": window_s - untraced_window_s,
    }

"""Machine-readable performance harness: ``python -m repro bench``.

Runs the repository's benchmark scenarios (the same instance presets the
``benchmarks/`` suite uses) with tracing enabled and emits a
schema-versioned JSON document — the repo's performance trajectory.
Every future perf PR appends a ``BENCH_<date>.json`` produced here and
compares it against the previous one with :func:`compare_documents`.

Document layout (``SCHEMA_VERSION`` = 3)::

    {
      "schema_version": 3,
      "kind": "repro-bench",
      "scale": "tiny",                  # tiny | small | medium | large
      "seed": 2007,
      "repeats": 3,
      "env": {"python": ..., "numpy": ..., "platform": ...},
      "config": {"n_servers": ..., "n_objects": ..., "total_requests": ...},
      "results": [
        {
          "scenario": "placement",      # or "protocol" / "engine_compare"
          "algorithm": "AGT-RAM",
          "wall_s": 0.0123,             # best of `repeats` runs
          "otc": ..., "savings_percent": ..., "replicas": ..., "rounds": ...,
          "spans": {path: {count, total_s, mean_s, min_s, max_s}},
          "counters": {path: value},
          # observability accounting (v3)
          "peak_rss_mb": ...,           # process high-water mark so far
          "events_emitted": ...,        # events this scenario emitted
          "events_bytes": ...,          # their captured columnar bytes
          # mechanism scenarios (v2): per-round trajectories
          "series": {"otc": [...], "best_bid": [...], "payment": [...],
                     "n_bids": [...],
                     # protocol scenario only:
                     "messages": [...], "bytes": [...],
                     "parallel_round_work": [...],
                     "serial_round_work": [...]},
          # protocol scenario only:
          "messages": ..., "bytes": ..., "modelled_parallel_speedup": ...
        }, ...
      ]
    }

Schema history: v3 added the per-record observability accounting
(``peak_rss_mb`` — the ``getrusage`` high-water mark, monotone across
the document's records — plus ``events_emitted`` / ``events_bytes``
from the capturing sink) and made the default capture sink the
block-aware :class:`~repro.obs.events.ColumnarSink`; v2 added the
per-round ``series`` trajectories (taken from the best run); v1
documents remain loadable.  The ``engine_compare`` record
(naive-vs-vectorized identity verdict and uninstrumented speedup, see
:mod:`repro.obs.equivalence`) is additive — documents without it still
compare cleanly.

Span paths are hierarchical (see :mod:`repro.obs.tracer`); the AGT-RAM
per-round phases land under ``mechanism/AGT-RAM/...`` and the baseline
phases under ``baseline/<name>/...``.  Bench runs execute with both the
tracer *and* the event stream enabled (the series come from the
events), so the measured walls include that instrumentation — identical
across the documents being compared.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.experiments.config import ExperimentConfig
from repro.obs import events as ev
from repro.obs.tracer import capture

SCHEMA_VERSION = 3
DOCUMENT_KIND = "repro-bench"

#: Default time-regression tolerance: new wall time beyond
#: ``old * (1 + TIME_TOLERANCE)`` is flagged.
TIME_TOLERANCE = 0.15

#: Default quality tolerance in absolute OTC-savings percentage points.
QUALITY_TOLERANCE = 1.0

#: Benchmark instance presets — single source of truth shared with
#: ``benchmarks/_config.py`` (which imports :func:`bench_config`).
#:
#: ``tiny`` is the CI smoke preset (committed baseline, second-resolution
#: runs).  ``small`` upward are sized so the mechanism loop — not numpy
#: per-call dispatch — dominates the wall clock; they are what the
#: engine-speedup gates measure (see docs/performance.md).  ``large`` is
#: the nightly scaling preset.
BENCH_SCALE_CONFIGS: dict[str, ExperimentConfig] = {
    "tiny": ExperimentConfig(
        n_servers=16, n_objects=64, total_requests=8_000, seed=2007, name="bench"
    ),
    "small": ExperimentConfig(
        n_servers=240,
        n_objects=1200,
        total_requests=1_350_000,
        seed=2007,
        name="bench",
    ),
    "medium": ExperimentConfig(
        n_servers=320,
        n_objects=1600,
        total_requests=2_400_000,
        seed=2007,
        name="bench",
    ),
    "large": ExperimentConfig(
        n_servers=640,
        n_objects=3200,
        total_requests=9_600_000,
        seed=2007,
        name="bench",
    ),
}

#: Algorithms the bench document records, in the paper's reporting order.
BENCH_ALGORITHMS: tuple[str, ...] = ("Greedy", "GRA", "Ae-Star", "AGT-RAM", "DA", "EA")


def bench_scale(default: str = "small") -> str:
    """The active scale: ``REPRO_BENCH_SCALE`` env var, else ``default``."""
    scale = os.environ.get("REPRO_BENCH_SCALE", default)
    if scale not in BENCH_SCALE_CONFIGS:
        raise ValueError(
            f"unknown REPRO_BENCH_SCALE {scale!r}; "
            f"expected one of {sorted(BENCH_SCALE_CONFIGS)}"
        )
    return scale


def bench_config(scale: str) -> ExperimentConfig:
    """The benchmark instance preset for ``scale`` (tiny … large)."""
    try:
        return BENCH_SCALE_CONFIGS[scale]
    except KeyError:
        raise ValueError(
            f"unknown bench scale {scale!r}; expected one of "
            f"{sorted(BENCH_SCALE_CONFIGS)}"
        ) from None


# -- document production ----------------------------------------------------


def _environment() -> dict[str, str]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _peak_rss_mb() -> float:
    """Process peak RSS in MiB (0.0 where ``getrusage`` is unavailable).

    ``ru_maxrss`` is a high-water mark, so per-record values are
    monotone non-decreasing across a document — each scenario's figure
    bounds, rather than isolates, its own footprint.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-unix
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes; macOS reports bytes.
    divisor = 1024 * 1024 if sys.platform == "darwin" else 1024
    return peak / divisor


def _sink_len(sink: ev.EventSink) -> int:
    try:
        return len(sink)  # type: ignore[arg-type]
    except TypeError:
        return 0


def _obs_fields(
    sink: ev.EventSink, events_before: int, bytes_before: int
) -> dict[str, Any]:
    """The v3 observability accounting for one scenario record."""
    return {
        "peak_rss_mb": _peak_rss_mb(),
        "events_emitted": _sink_len(sink) - events_before,
        "events_bytes": getattr(sink, "nbytes", 0) - bytes_before,
    }


def _placement_record(
    algorithm: str,
    instance: Any,
    repeats: int,
    seed: int,
    sink: ev.EventSink,
) -> dict[str, Any]:
    from repro.experiments.runner import run_algorithms

    best = None
    events_before = _sink_len(sink)
    bytes_before = getattr(sink, "nbytes", 0)
    with capture() as tracer, ev.capture(sink):
        for _ in range(repeats):
            result = run_algorithms(instance, [algorithm], seed=seed)[algorithm]
            if best is None or result.runtime_s < best.runtime_s:
                best = result
    assert best is not None
    snap = tracer.snapshot()
    record = {
        "scenario": "placement",
        "algorithm": algorithm,
        "wall_s": best.runtime_s,
        "otc": best.otc,
        "savings_percent": best.savings_percent,
        "replicas": best.replicas_allocated,
        "rounds": best.rounds,
        "spans": snap["spans"],
        "counters": snap["counters"],
        **_obs_fields(sink, events_before, bytes_before),
    }
    series = best.extra.get("round_series")
    if series is not None:
        record["series"] = series.to_dict()
    return record


def _protocol_record(
    instance: Any, repeats: int, sink: ev.EventSink
) -> dict[str, Any]:
    from repro.runtime.simulator import SemiDistributedSimulator

    best = None
    events_before = _sink_len(sink)
    bytes_before = getattr(sink, "nbytes", 0)
    with capture() as tracer, ev.capture(sink):
        for _ in range(repeats):
            result = SemiDistributedSimulator().run(instance)
            if best is None or result.runtime_s < best.runtime_s:
                best = result
    assert best is not None
    snap = tracer.snapshot()
    metrics = best.extra["metrics"]
    summary = metrics.summary()
    record = {
        "scenario": "protocol",
        "algorithm": best.algorithm,
        "wall_s": best.runtime_s,
        "otc": best.otc,
        "savings_percent": best.savings_percent,
        "replicas": best.replicas_allocated,
        "rounds": best.rounds,
        "messages": summary["messages"],
        "bytes": summary["bytes"],
        # total / critical-path PARFOR work: a model, not a timing
        "modelled_parallel_speedup": summary["parallel_speedup"],
        "spans": snap["spans"],
        "counters": snap["counters"],
        **_obs_fields(sink, events_before, bytes_before),
    }
    series = best.extra.get("round_series")
    series_dict = series.to_dict() if series is not None else {}
    series_dict["parallel_round_work"] = summary["parallel_round_work"]
    series_dict["serial_round_work"] = summary["serial_round_work"]
    record["series"] = series_dict
    return record


def _engine_compare_record(instance: Any, repeats: int) -> dict[str, Any]:
    """Extra ``engine_compare`` scenario record for the bench document.

    ``wall_s`` is the *vectorized* uninstrumented wall so document
    comparisons track the engine the repo actually ships; the naive
    wall, speedup, and bit-for-bit identity verdict ride along.
    Scenarios present in only one document are never flagged by
    :func:`compare_documents`, so older baselines stay comparable.
    """
    from repro.obs.equivalence import compare_engines

    cmp = compare_engines(instance, repeats=repeats)
    return {
        "scenario": "engine_compare",
        "algorithm": "AGT-RAM",
        "wall_s": cmp.vectorized_wall_s,
        "naive_wall_s": cmp.naive_wall_s,
        "speedup": cmp.speedup,
        "identical": cmp.identical,
        "audit_ok": cmp.audit_ok,
        "mismatches": list(cmp.mismatches),
        "rounds": cmp.rounds,
        "spans": {},
        "counters": {},
    }


def run_bench(
    *,
    scale: Optional[str] = None,
    algorithms: Optional[Sequence[str]] = None,
    seed: int = 0,
    repeats: int = 3,
    include_protocol: bool = True,
    event_sink: Optional[ev.EventSink] = None,
    include_engine_compare: bool = True,
) -> dict[str, Any]:
    """Execute the benchmark scenarios and return the JSON document.

    Parameters
    ----------
    scale:
        Instance preset; defaults to ``REPRO_BENCH_SCALE`` (or "small").
    algorithms:
        Placement algorithms to record (default: the paper's six).
    seed:
        Root seed forwarded to the algorithm runner.
    repeats:
        Runs per scenario; ``wall_s`` is the best of them (span stats
        aggregate across all repeats).
    include_protocol:
        Also run the message-granular simulator scenario, which is the
        only source of message/byte counts.
    event_sink:
        Sink receiving the full event stream of every scenario run
        (e.g. a :class:`~repro.obs.events.ColumnarSink` to export a
        JSONL log / Chrome trace afterwards).  A fresh columnar sink is
        used when omitted — blocks stay columnar until export, and the
        v3 ``events_emitted`` / ``events_bytes`` accounting reads its
        counters; the per-round ``series`` in the document are derived
        from the event machinery either way.
    include_engine_compare:
        Also emit an ``engine_compare`` record proving the production
        engine bit-for-bit identical to the reference engine on this
        preset and measuring the uninstrumented speedup (requires
        AGT-RAM among the algorithms; silently skipped otherwise).
    """
    from repro.experiments.instances import paper_instance

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    scale = scale if scale is not None else bench_scale()
    cfg = bench_config(scale)
    algorithms = tuple(algorithms) if algorithms else BENCH_ALGORITHMS
    instance = paper_instance(cfg)
    sink = event_sink if event_sink is not None else ev.ColumnarSink()

    results = [
        _placement_record(alg, instance, repeats, seed, sink) for alg in algorithms
    ]
    if include_protocol:
        results.append(_protocol_record(instance, repeats, sink))
    if include_engine_compare and "AGT-RAM" in algorithms:
        results.append(_engine_compare_record(instance, repeats))

    return {
        "schema_version": SCHEMA_VERSION,
        "kind": DOCUMENT_KIND,
        "scale": scale,
        "seed": seed,
        "repeats": repeats,
        "env": _environment(),
        "config": {
            "n_servers": cfg.n_servers,
            "n_objects": cfg.n_objects,
            "total_requests": cfg.total_requests,
            "rw_ratio": cfg.rw_ratio,
            "capacity_fraction": cfg.capacity_fraction,
            "seed": cfg.seed,
        },
        "results": results,
    }


# -- document I/O -----------------------------------------------------------


def validate_document(doc: Any) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed bench document."""
    if not isinstance(doc, dict):
        raise ValueError("bench document must be a JSON object")
    if doc.get("kind") != DOCUMENT_KIND:
        raise ValueError(f"not a {DOCUMENT_KIND} document: kind={doc.get('kind')!r}")
    version = doc.get("schema_version")
    if not isinstance(version, int) or version < 1:
        raise ValueError(f"bad schema_version: {version!r}")
    if version > SCHEMA_VERSION:
        raise ValueError(
            f"document schema_version {version} is newer than supported "
            f"{SCHEMA_VERSION}; upgrade the library"
        )
    results = doc.get("results")
    if not isinstance(results, list):
        raise ValueError("bench document has no results list")
    for i, record in enumerate(results):
        if not isinstance(record, dict):
            raise ValueError(f"results[{i}] is not an object")
        for key in ("scenario", "algorithm", "wall_s"):
            if key not in record:
                raise ValueError(f"results[{i}] missing required key {key!r}")
        if not isinstance(record["wall_s"], (int, float)) or record["wall_s"] < 0:
            raise ValueError(f"results[{i}].wall_s must be a non-negative number")
        spans = record.get("spans", {})
        if not isinstance(spans, dict):
            raise ValueError(f"results[{i}].spans must be an object")
        series = record.get("series")
        if series is not None:
            if not isinstance(series, dict) or not all(
                isinstance(v, list) for v in series.values()
            ):
                raise ValueError(
                    f"results[{i}].series must map series names to lists"
                )


def write_document(doc: dict[str, Any], path: str | Path) -> Path:
    """Validate and write a bench document; returns the path written."""
    validate_document(doc)
    out = Path(path)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return out


def load_document(path: str | Path) -> dict[str, Any]:
    """Load and validate a bench document from disk."""
    doc = json.loads(Path(path).read_text())
    validate_document(doc)
    return doc


# -- comparison -------------------------------------------------------------


def _index(doc: dict[str, Any]) -> dict[tuple[str, str], dict[str, Any]]:
    return {(r["scenario"], r["algorithm"]): r for r in doc["results"]}


def compare_documents(
    old: dict[str, Any],
    new: dict[str, Any],
    *,
    time_tolerance: float = TIME_TOLERANCE,
    quality_tolerance: float = QUALITY_TOLERANCE,
) -> dict[str, Any]:
    """Diff two bench documents; returns regressions and improvements.

    A *time regression* is ``new.wall_s > old.wall_s * (1 + time_tolerance)``;
    a *quality regression* is an OTC-savings drop of more than
    ``quality_tolerance`` absolute percentage points.  Scenarios present
    in only one document are reported but never flagged.
    """
    if time_tolerance < 0 or quality_tolerance < 0:
        raise ValueError("tolerances must be >= 0")
    validate_document(old)
    validate_document(new)
    old_index, new_index = _index(old), _index(new)

    regressions: list[dict[str, Any]] = []
    improvements: list[dict[str, Any]] = []
    unchanged: list[str] = []
    for key in sorted(set(old_index) & set(new_index)):
        label = f"{key[0]}/{key[1]}"
        o, n = old_index[key], new_index[key]
        flagged = False

        old_t, new_t = float(o["wall_s"]), float(n["wall_s"])
        ratio = new_t / old_t if old_t > 0 else float("inf") if new_t > 0 else 1.0
        entry = {
            "key": label,
            "metric": "wall_s",
            "old": old_t,
            "new": new_t,
            "ratio": ratio,
        }
        if old_t > 0 and new_t > old_t * (1.0 + time_tolerance):
            regressions.append(entry)
            flagged = True
        elif old_t > 0 and new_t < old_t / (1.0 + time_tolerance):
            improvements.append(entry)
            flagged = True

        if "savings_percent" in o and "savings_percent" in n:
            old_q, new_q = float(o["savings_percent"]), float(n["savings_percent"])
            q_entry = {
                "key": label,
                "metric": "savings_percent",
                "old": old_q,
                "new": new_q,
                "delta": new_q - old_q,
            }
            if new_q < old_q - quality_tolerance:
                regressions.append(q_entry)
                flagged = True
            elif new_q > old_q + quality_tolerance:
                improvements.append(q_entry)
                flagged = True

        if not flagged:
            unchanged.append(label)

    only_old = sorted(f"{s}/{a}" for s, a in set(old_index) - set(new_index))
    only_new = sorted(f"{s}/{a}" for s, a in set(new_index) - set(old_index))
    return {
        "time_tolerance": time_tolerance,
        "quality_tolerance": quality_tolerance,
        "regressions": regressions,
        "improvements": improvements,
        "unchanged": unchanged,
        "only_in_old": only_old,
        "only_in_new": only_new,
    }


def format_comparison(cmp: dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`compare_documents` result."""
    lines: list[str] = []
    for entry in cmp["regressions"]:
        if entry["metric"] == "wall_s":
            lines.append(
                f"REGRESSION  {entry['key']}: wall {entry['old'] * 1e3:.2f} ms "
                f"-> {entry['new'] * 1e3:.2f} ms ({entry['ratio']:.2f}x)"
            )
        else:
            lines.append(
                f"REGRESSION  {entry['key']}: savings {entry['old']:.2f}% "
                f"-> {entry['new']:.2f}% ({entry['delta']:+.2f} pts)"
            )
    for entry in cmp["improvements"]:
        if entry["metric"] == "wall_s":
            lines.append(
                f"improved    {entry['key']}: wall {entry['old'] * 1e3:.2f} ms "
                f"-> {entry['new'] * 1e3:.2f} ms ({entry['ratio']:.2f}x)"
            )
        else:
            lines.append(
                f"improved    {entry['key']}: savings {entry['old']:.2f}% "
                f"-> {entry['new']:.2f}% ({entry['delta']:+.2f} pts)"
            )
    for label in cmp["only_in_old"]:
        lines.append(f"missing     {label} (present only in old document)")
    for label in cmp["only_in_new"]:
        lines.append(f"new         {label} (present only in new document)")
    n_ok = len(cmp["unchanged"])
    lines.append(
        f"{len(cmp['regressions'])} regression(s), "
        f"{len(cmp['improvements'])} improvement(s), {n_ok} within tolerance "
        f"(time tol {cmp['time_tolerance']:.0%}, "
        f"quality tol {cmp['quality_tolerance']:.1f} pts)"
    )
    return "\n".join(lines)


def default_output_name(date: Optional[str] = None) -> str:
    """The conventional trajectory filename, ``BENCH_<YYYY-MM-DD>.json``."""
    if date is None:
        import datetime

        date = datetime.date.today().isoformat()
    return f"BENCH_{date}.json"


def main(argv: Optional[Sequence[str]] = None) -> int:  # pragma: no cover
    """Allow ``python -m repro.obs.report`` as a direct entry point."""
    from repro.cli import main as cli_main

    return cli_main(["bench", *(argv if argv is not None else sys.argv[1:])])

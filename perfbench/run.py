"""The repository benchmark: AGT-RAM workloads timed on the path callers run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload flat-large --seed 2007 --seconds 30 --trace 0

Workloads (``workloads.py``, ``BENCHMARK.json``, ``README.md``):
``flat-large``, ``serve-flashcrowd`` and ``resilience-composed``.  A run
builds several input draws from ``--seed`` — the seed's own inputs and
more from seeds derived from it, because draws of one preset differ in
size (flat-large's round counts by up to ~1.7x) — with ``setup_s`` the
median set-up time of one draw, then cycles over them for ``--seconds`` in one
thread, checks every output, prints each metric with its unit and, as the
last line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the library as shipped and reports the end-to-end
metrics.  ``--trace 1`` runs one untraced pass, then one pass with every
layer's public calls wrapped (``layers.py``), and reports the per-layer
metrics; its deterministic outputs must equal the untraced pass's.  The
exit status is 1 when any check fails and 2 outside a repository checkout.
"""

from __future__ import annotations

import os

# One thread: BLAS would otherwise spread numpy's matrix products over
# every core, so figures would depend on what else the machine runs.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Any  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: Deterministic results recorded for the first draw of each default seed.
RECORDED = {
    "flat-large": {"savings_pct": 0.5964206406552591},
}

_REFERENCE_INPUT = np.linspace(0.0, 1.0, 131_072)


def reference_s() -> float:
    """Duration of a fixed computation that uses nothing from the library.

    The host's speed changes by up to ~2x from one second to the next
    (other tenants share its cores).  Timing this computation around every
    pass gives the host's speed at that moment; the end-to-end rates are
    work per reference duration, which a change in host speed moves far
    less than it moves work per second.
    """
    t0 = perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(20_000):
        table[i & 255] = acc
        acc += i % 7
    a = _REFERENCE_INPUT
    for _ in range(10):
        a = np.sqrt(a + 1.0)
    return perf_counter() - t0


def _references() -> list[float]:
    return [reference_s() for _ in range(4)]


def _spec() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def draw_seeds(seed: int, n: int) -> list[int]:
    """The seed itself, then ``n - 1`` seeds derived from it."""
    children = np.random.SeedSequence(seed).generate_state(n - 1)
    return [seed] + [int(c) for c in children]


def _setup(
    wl: Any, seed: int, n: int, builds: int = 1, trace: Any = None
) -> tuple[list[Any], list[float]]:
    """Build ``n`` draws, each ``builds`` times (the last build is kept);
    every build is a ``setup_s`` sample."""
    draws, times = [], []
    for s in draw_seeds(seed, n):
        draw = None
        for _ in range(builds):
            draw = None
            gc.collect()
            t0 = perf_counter()
            with trace.memory.phase("build") if trace is not None else nullcontext():
                draw = wl.setup(s)
            times.append(perf_counter() - t0)
        draws.append(draw)
    return draws, times


Pass = tuple[int, Any, dict[str, float]]


def _rate(passes: list[Pass], work: str, seconds: str) -> float:
    """Σ work over draws ÷ Σ each draw's median duration, in units of the
    reference duration measured around that phase of each pass (a
    reference of 1.0 gives plain seconds)."""
    by_draw: dict[int, list[tuple[Any, float]]] = {}
    for k, it, refs in passes:
        by_draw.setdefault(k, []).append((it, refs[seconds]))
    total_work = sum(getattr(items[0][0], work) for items in by_draw.values())
    total_time = sum(
        _median([getattr(it, seconds) / ref for it, ref in items]) for items in by_draw.values()
    )
    return total_work / total_time


def run_untraced(wl: Any, seed: int, seconds: float) -> tuple[dict[str, float], list[Any], list[str]]:
    from layers import process_peak_rss_mb

    draws, setup_times = _setup(wl, seed, wl.draws, wl.builds)
    passes: list[Pass] = []
    before = _references()
    start = perf_counter()
    while True:
        k = len(passes) % len(draws)
        # Each pass starts from the same collector state, so a full
        # collection left pending by the previous one does not land in it.
        gc.collect()
        marks: list[list[float]] = []
        it = wl.iterate(draws[k], mark=lambda: marks.append(_references()))
        after = _references()
        # The headline call runs before the first mark, the audited path
        # after it; each is measured against the readings around it.
        refs = {
            "run_s": _median(before + marks[0]),
            "check_s": _median([r for m in marks for r in m] + after),
        }
        passes.append((k, it, refs))
        before = after
        elapsed = perf_counter() - start
        if len(passes) >= len(draws) and elapsed * (1 + 1 / len(passes)) > seconds:
            break

    problems = _consistency(passes)
    if seed == wl.default_seed:
        first = passes[0][1]
        for key, expected in RECORDED.get(wl.name, {}).items():
            if first.values[key] != expected:
                problems.append(f"{key} {first.values[key]!r} != recorded {expected!r}")
    metrics = {
        "setup_s": _median(setup_times),
        "peak_rss_mb": process_peak_rss_mb(),
        "ops_per_ref": _rate(passes, "ops", "run_s"),
        "audit_events_per_ref": _rate(passes, "events", "check_s"),
    }
    _print_walls(passes, setup_times)
    return metrics, [it for _, it, _ in passes], problems


def _consistency(passes: list[Pass]) -> list[str]:
    """Every digest of a draw must repeat exactly across its passes."""
    seen: dict[tuple[int, str], str] = {}
    problems = []
    for k, it, _ in passes:
        for key, digest in it.digests.items():
            if seen.setdefault((k, key), digest) != digest:
                problems.append(f"draw {k}: {key} differs between passes")
    return problems


def _print_walls(passes: list[Pass], setup_times: list[float]) -> None:
    print("  set-up per draw: " + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
    refs = [ref for _, _, pass_refs in passes for ref in pass_refs.values()]
    print(f"  reference duration: median {_median(refs) * 1e3:.3f} ms "
          f"(min {min(refs) * 1e3:.3f}, max {max(refs) * 1e3:.3f})")
    wall = [(k, it, {"run_s": 1.0, "check_s": 1.0}) for k, it, _ in passes]
    print(f"  wall-clock rates: ops {_rate(wall, 'ops', 'run_s'):.6g}/s, "
          f"audited events {_rate(wall, 'events', 'check_s'):.6g}/s")
    for key in passes[0][1].walls:
        samples = [it.walls[key] for _, it, _ in passes]
        print(f"  {key:<24} median {_median(samples):.4f} s over {len(samples)} passes "
              f"(min {min(samples):.4f}, max {max(samples):.4f})")


def run_traced(wl: Any, seed: int) -> tuple[dict[str, float], list[Any], list[str]]:
    from layers import Trace, install, layer_metrics

    trace = Trace()
    patches = install(trace.spans, trace.facts)
    try:
        (draw,), _ = _setup(wl, seed, 1, trace=trace)
    finally:
        patches.restore()
    gc.collect()
    reference = wl.iterate(draw)
    gc.collect()
    patches = install(trace.spans, trace.facts)
    try:
        traced = wl.iterate(draw, trace)
    finally:
        patches.restore()

    problems = [
        f"traced {key} differs from untraced"
        for key, digest in reference.digests.items()
        if traced.digests.get(key) != digest
    ]
    metrics = layer_metrics(
        trace.spans,
        trace.facts,
        trace.memory,
        trace.request_gaps,
        reference.values,
        traced.events,
        traced.timed_s,
        trace.spans.top_level_s,
        reference.timed_s,
    )
    share = metrics["unattributed_s"] / traced.timed_s
    print(f"  timed window {traced.timed_s:.3f} s traced, {reference.timed_s:.3f} s untraced; "
          f"unattributed {100 * share:.1f}%")
    if share > 0.10:
        problems.append(f"unattributed time is {100 * share:.1f}% of the timed window (> 10%)")
    if not trace.memory.isolated:
        print("  per-phase peak RSS: /proc/self/clear_refs not writable; "
              "figures are the cumulative ru_maxrss")
    return metrics, [reference, traced], problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("flat-large", "serve-flashcrowd", "resilience-composed"))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's recorded default)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    from layers import MOVES, layer_of

    spec = _spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    wl = workloads.make(args.workload, OUT_DIR)
    seed = wl.default_seed if args.seed is None else args.seed
    print(f"{wl.name} (seed {seed}): {wl.shape}")
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, iterations, problems = run_traced(wl, seed)
        else:
            metrics, iterations, problems = run_untraced(wl, seed, args.seconds)
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics and BENCHMARK.json disagree: {sorted(set(metrics) ^ set(units))}")
    for it in iterations:
        problems.extend(it.failures)
    for name, value in metrics.items():
        moves = f"  (moves: {MOVES[layer_of(name)]})" if args.trace else ""
        print(f"  {name:<26} {value:>16.6g} {units[name]}{moves}")
    if not args.trace:
        for key in ("savings_pct", "availability", "model_p99_latency", "messages_per_commit",
                    "mttr_rounds"):
            if key in iterations[0].values:
                print(f"  {key:<26} {iterations[0].values[key]:>16.6g} (exact, first draw)")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  checks: {'PASS' if not problems else 'FAIL'}")

    violations = sum(int(it.values.get("audit_violations", 0)) for it in iterations)
    result = {
        "correct": not problems,
        "attempted": sum(it.attempted for it in iterations),
        "failed": violations + len(problems),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

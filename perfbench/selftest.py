"""Self-test: the benchmark's placement timing is the untraced tight loop.

Run from the root of a checkout::

    python3 perfbench/selftest.py

At the medium preset, the median of the benchmark's own untraced
placements (``workloads.untraced_placement``) must lie within 2x of
``repro.obs.equivalence.compare_engines(...).vectorized_wall_s``, the
repository's best-of-N timing of the vectorized tight loop.  A placement
run inside ``repro.obs.tracer.capture()`` leaves that loop and takes
about 25x longer, so a harness that timed the instrumented path fails
here.  The path guard itself is also exercised: with a tracer or an event
sink active, the benchmark's placement call must refuse to time.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("selftest: no repro package under src/; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments.instances import paper_instance
    from repro.obs import events, tracer
    from repro.obs.equivalence import compare_engines
    from repro.obs.report import bench_config
    from workloads import untraced_placement

    instance = paper_instance(bench_config("medium"))
    failures = []
    for name, capture in (("tracer", tracer.capture), ("event sink", events.capture)):
        with capture():
            try:
                untraced_placement(instance)
            except RuntimeError:
                continue
        failures.append(f"path guard let a placement run with an active {name}")

    comparison = compare_engines(instance, repeats=3, scale="medium")
    if not (comparison.identical and comparison.audit_ok):
        failures.append(f"engine comparison failed: {comparison.mismatches}")
    for _ in range(2):
        untraced_placement(instance)
    place_s = statistics.median(untraced_placement(instance)[1] for _ in range(9))
    ratio = place_s / comparison.vectorized_wall_s
    print(f"medium: place_s median {place_s:.4f} s over 9 runs; "
          f"compare_engines vectorized best-of-3 {comparison.vectorized_wall_s:.4f} s; "
          f"ratio {ratio:.2f}")
    if not 0.5 <= ratio <= 2.0:
        failures.append(f"place_s is {ratio:.2f}x the tight-loop timing (allowed 0.5-2)")
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest:", "PASS" if not failures else "FAIL")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

"""Runtime scaling of the AGT-RAM engines with system size.

Theorem 4's O(M·N²) worst case aside, the practical scaling story is
the per-round cost: the naive engine rebuilds the full (M, N) benefit
matrix and argmaxes it every round, while the vectorized engine
delta-maintains each agent's dominant report from the NN broadcast's
dirty set — O(M + |dirty|·N) per round (see docs/performance.md).
Doubling the system should therefore *widen* the gap, while the
placements stay bit-for-bit identical.  Greedy rides along as the
baseline the paper compares against.
"""

import time

import numpy as np

from repro.baselines.greedy import GreedyPlacer
from repro.core.agt_ram import run_agt_ram
from repro.experiments.config import ExperimentConfig
from repro.experiments.instances import paper_instance
from repro.utils.tables import render_table

SIZES = ((40, 200), (80, 400), (160, 800))
REPEATS = 7
ENGINES = ("naive", "vectorized")


def _best_walls(instance):
    """Best-of-``REPEATS`` wall time and result per engine, the engines
    timed alternately so a slow stretch of a shared host lands on both."""
    walls = dict.fromkeys(ENGINES, float("inf"))
    results = {}
    for _ in range(REPEATS):
        for engine in ENGINES:
            t0 = time.perf_counter()
            results[engine] = run_agt_ram(instance, engine=engine)
            walls[engine] = min(walls[engine], time.perf_counter() - t0)
    return walls, results


def run_scaling():
    out = []
    for m, n in SIZES:
        cfg = ExperimentConfig(
            n_servers=m,
            n_objects=n,
            total_requests=5 * m * n,
            rw_ratio=0.9,
            capacity_fraction=0.35,
            seed=31,
            name=f"scale-{m}x{n}",
        )
        inst = paper_instance(cfg)
        walls, results = _best_walls(inst)
        naive_s, vec_s = walls["naive"], walls["vectorized"]
        naive, vec = results["naive"], results["vectorized"]
        greedy = GreedyPlacer().place(inst)
        assert np.array_equal(naive.state.x, vec.state.x), (m, n)
        assert naive.otc == vec.otc, (m, n)
        out.append(
            {
                "m": m,
                "n": n,
                "naive_s": naive_s,
                "vec_s": vec_s,
                "greedy_s": greedy.runtime_s,
                "agt_savings": vec.savings_percent,
                "greedy_savings": greedy.savings_percent,
            }
        )
    return out


def test_runtime_scaling(benchmark, report):
    data = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    rows = [
        [
            f"M={d['m']}, N={d['n']}",
            d["naive_s"] * 1e3,
            d["vec_s"] * 1e3,
            d["naive_s"] / d["vec_s"],
            d["greedy_s"] * 1e3,
            d["agt_savings"],
        ]
        for d in data
    ]
    report(
        render_table(
            [
                "size",
                "naive (ms)",
                "vectorized (ms)",
                "speedup",
                "Greedy (ms)",
                "AGT-RAM savings (%)",
            ],
            rows,
            title="Engine scaling with system size (request density fixed; "
            "placements verified identical)",
        )
    )
    speedups = [d["naive_s"] / d["vec_s"] for d in data]
    # The vectorized engine wins at every size, decisively at the
    # largest (the gated CI thresholds live in `make equivalence`; this
    # one is deliberately loose — it shares a runner with other work).
    for d in data:
        assert d["vec_s"] < d["naive_s"], d
    assert speedups[-1] > 1.5
    # AGT-RAM (vectorized) also stays ahead of the Greedy baseline.
    assert data[-1]["vec_s"] < data[-1]["greedy_s"]
    benchmark.extra_info["speedup_smallest"] = round(speedups[0], 2)
    benchmark.extra_info["speedup_largest"] = round(speedups[-1], 2)

"""Optimality gap of every method against the exact solver.

The paper cannot report this (NP-complete at its scale); where an
instance is small enough, the exact MILP (``OptimalPlacer``, HiGHS)
anchors the whole comparison: how much of the truly available savings
does each method capture, and how much of the AGT-RAM/Greedy gap is
real headroom vs. shared suboptimality.

Rows: four 5×5 toy instances and the tiny bench preset (16×64, ~1.5 s);
at ``REPRO_BENCH_SCALE`` medium or large also the tiny preset's knobs
at 40 servers × 200 objects (~15 s, ~0.6 GiB), which CI runs nightly.
"""

import statistics

from repro.baselines.optimal import OptimalPlacer
from repro.drp.cost import primary_only_otc
from repro.drp.instance import build_instance
from repro.experiments.instances import paper_instance
from repro.experiments.runner import run_algorithms
from repro.obs.report import bench_config, bench_scale
from repro.topology import random_graph
from repro.utils.tables import render_table
from repro.workload.synthetic import synthesize_workload

ALGS = ("Greedy", "AGT-RAM", "DA", "EA", "GRA")
N_INSTANCES = 4


def gap_instances():
    out = []
    for seed in range(N_INSTANCES):
        topo = random_graph(5, 0.5, seed=seed)
        w = synthesize_workload(
            5, 5, total_requests=800, rw_ratio=0.9, server_skew=1.0, seed=seed
        )
        out.append(
            build_instance(topo, w, capacity_fraction=0.4, seed=seed,
                           name=f"tiny-{seed}")
        )
    tiny = bench_config("tiny")
    out.append(paper_instance(tiny.with_(name="tiny-preset")))
    if bench_scale() in ("medium", "large"):
        wide = tiny.with_(
            n_servers=40, n_objects=200, total_requests=30_000, name="40x200"
        )
        out.append(paper_instance(wide))
    return out


def run_gap_study():
    rows = []
    for inst in gap_instances():
        base = primary_only_otc(inst)
        opt = OptimalPlacer().place(inst)
        optimal_savings = base - opt.otc
        results = run_algorithms(
            inst, ALGS,
            placer_kwargs={"GRA": {"population_size": 10, "generations": 15}},
        )
        captured = {}
        for alg, res in results.items():
            saved = base - res.otc
            captured[alg] = (
                100.0 * saved / optimal_savings if optimal_savings > 0 else 100.0
            )
        rows.append((inst.name, captured))
    return rows


def test_optimality_gap(benchmark, report):
    rows = benchmark.pedantic(run_gap_study, rounds=1, iterations=1)
    table = [
        [name] + [captured[a] for a in ALGS] for name, captured in rows
    ]
    report(
        render_table(
            ["instance"] + list(ALGS),
            table,
            title="% of the optimal savings captured (exact solver = 100)",
        )
    )
    mean_captured = {
        a: statistics.mean(captured[a] for _, captured in rows) for a in ALGS
    }
    for a, v in mean_captured.items():
        benchmark.extra_info[f"captured[{a}]"] = round(v, 2)

    # No method exceeds the optimum, greedy is near-optimal, and even
    # the local mechanism captures most of the true headroom.  (At toy
    # scale GRA's population search can rival the mechanisms — its
    # weakness only emerges with size, see Figure 3/4 benches — so no
    # GRA ordering is asserted here.)
    for _, captured in rows:
        for a in ALGS:
            assert captured[a] <= 100.0 + 1e-6
    assert mean_captured["Greedy"] >= 95.0
    assert mean_captured["AGT-RAM"] >= 70.0

"""Extension (paper §7): hierarchical/regional mechanisms.

"This would enable the system to be less vulnerable to the failures of
a single mechanism" — measured: the concurrent regional game converges
in far fewer global rounds for a small quality cost; §7's cooperative
regional game prices whole regions' read rerouting; and killing one
regional body degrades savings gracefully where the flat design would
lose everything.
"""

import numpy as np

from _config import BENCH_BASE
from repro.core.agt_ram import run_agt_ram
from repro.experiments.instances import paper_instance
from repro.runtime.faults import FaultPlan, FaultSchedule
from repro.runtime.shard import ShardedAGTRam, partition_by_proximity
from repro.utils.tables import render_table

N_REGIONS = 5


def run_all():
    instance = paper_instance(
        BENCH_BASE.with_(rw_ratio=0.95, capacity_fraction=0.45, name="hier")
    )
    part = partition_by_proximity(instance, N_REGIONS, seed=1)
    flat = run_agt_ram(instance)
    con = ShardedAGTRam(partition=part).run(instance)
    coop = ShardedAGTRam(partition=part, valuation="regional").run(instance)
    # Region 0's body is lost: its every agent is down for the whole run.
    horizon = instance.n_servers * instance.n_objects
    region_0_down = FaultPlan(
        schedule=FaultSchedule(
            agent_crashes={
                int(a): ((0, horizon),) for a in np.flatnonzero(part == 0)
            }
        ),
        checkpoint_period=0,
    )
    one_down = ShardedAGTRam(partition=part, faults=region_0_down).run(instance)
    return {
        "flat": flat,
        "concurrent": con,
        "concurrent+cooperative": coop,
        "1-region-down": one_down,
    }


def test_hierarchical_extension(benchmark, report):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [name, res.savings_percent, res.rounds, res.replicas_allocated]
        for name, res in results.items()
    ]
    report(
        render_table(
            ["variant", "savings (%)", "global rounds", "replicas"],
            rows,
            title=f"Hierarchical mechanism ({N_REGIONS} regions) vs flat "
            "[R/W=0.95, C=45%]",
        )
    )
    flat, con, down = (
        results["flat"],
        results["concurrent"],
        results["1-region-down"],
    )
    # Concurrent autonomy: ~n_regions x fewer global rounds...
    assert con.rounds < flat.rounds * 0.6
    # ...at a bounded quality cost.
    assert con.savings_percent > 0.85 * flat.savings_percent
    # Failure resilience: one dead region still leaves most of the value.
    assert down.savings_percent > 0.6 * flat.savings_percent
    benchmark.extra_info["concurrent_round_reduction"] = round(
        1 - con.rounds / flat.rounds, 3
    )

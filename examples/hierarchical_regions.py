#!/usr/bin/env python
"""Regional (hierarchical) AGT-RAM — the paper's Section 7 extension.

Servers are partitioned into proximity regions, each with its own
regional central body; the regions clear their sealed-bid rounds
concurrently (``ShardedAGTRam``).  The example contrasts:

* one region (provably the flat mechanism, bit for bit),
* concurrent regional autonomy (fewer global rounds, small quality cost),
* §7's cooperative regional game (agents of a region pool their books),
* resilience when a regional body fails (the flat design's single
  central body is a total single point of failure).

Run:  python examples/hierarchical_regions.py
"""

import numpy as np

from repro import (
    ExperimentConfig,
    ShardedAGTRam,
    paper_instance,
    partition_by_proximity,
    run_agt_ram,
)
from repro.runtime.faults import FaultPlan, FaultSchedule
from repro.utils.tables import render_table


def main() -> None:
    instance = paper_instance(
        ExperimentConfig(
            n_servers=40,
            n_objects=160,
            total_requests=30_000,
            rw_ratio=0.95,
            capacity_fraction=0.45,
            seed=17,
            name="regions-demo",
        )
    )
    n_regions = 5
    part = partition_by_proximity(instance, n_regions, seed=2)

    flat = run_agt_ram(instance)
    one = ShardedAGTRam(n_regions=1).run(instance)
    con = ShardedAGTRam(partition=part).run(instance)
    coop = ShardedAGTRam(partition=part, valuation="regional").run(instance)

    rows = [
        ["flat AGT-RAM", flat.savings_percent, flat.rounds],
        ["regional, 1 region", one.savings_percent, one.rounds],
        ["regional (concurrent)", con.savings_percent, con.rounds],
        ["regional (cooperative)", coop.savings_percent, coop.rounds],
    ]
    horizon = instance.n_servers * instance.n_objects
    for dead in range(n_regions):
        # Losing a regional body: every agent of the region is down for
        # the whole run.
        down = FaultPlan(
            schedule=FaultSchedule(
                agent_crashes={
                    int(a): ((0, horizon),) for a in np.flatnonzero(part == dead)
                }
            ),
            checkpoint_period=0,
        )
        res = ShardedAGTRam(partition=part, faults=down).run(instance)
        rows.append(
            [f"concurrent, region {dead} down", res.savings_percent, res.rounds]
        )
    print(
        render_table(
            ["variant", "OTC savings (%)", "global rounds"],
            rows,
            title=f"regional mechanism over {n_regions} proximity regions",
        )
    )

    assert np.array_equal(one.state.x, flat.state.x)
    print(
        "\na single region allocated the *identical* scheme to the flat "
        "mechanism (verified), while the concurrent variant used "
        f"{flat.rounds - con.rounds} fewer global rounds.\n"
        "Losing a regional body costs the savings its region's servers "
        "would have captured (most for the largest region); losing the "
        "flat design's central body would cost all of them."
    )

    stats = con.extra["region_stats"]
    rows = [
        [s.region, s.servers, s.allocations, s.payments]
        for s in stats.values()
    ]
    print()
    print(
        render_table(
            ["region", "servers", "allocations", "payments"],
            rows,
            title="per-region accounting (concurrent)",
        )
    )


if __name__ == "__main__":
    main()

"""Round-reduction variants: batched rounds and concurrent regions.

Every mechanism round is a synchronization of the whole system, so
deployments care about the rounds-vs-quality frontier.  Two variants
trade intra-round staleness for fewer rounds: AGT-RAM's batched rounds
(the paper's "list of objects" phrasing) and concurrent regional
clearing (§7).  This bench maps the frontier.
"""

from _config import BENCH_BASE
from repro.core.agt_ram import AGTRam
from repro.experiments.instances import paper_instance
from repro.runtime.shard import ShardedAGTRam
from repro.utils.tables import render_table


def run_frontier():
    instance = paper_instance(
        BENCH_BASE.with_(rw_ratio=0.95, capacity_fraction=0.45, name="rounds")
    )
    variants = {
        "Figure 2 (1/round)": AGTRam(),
        "batched B=4": AGTRam(batch_size=4),
        "batched B=16": AGTRam(batch_size=16),
        "concurrent 5 regions": ShardedAGTRam(n_regions=5, seed=2),
    }
    out = {}
    for label, mech in variants.items():
        out[label] = mech.run(instance)
    return out


def test_round_reduction_frontier(benchmark, report):
    results = benchmark.pedantic(run_frontier, rounds=1, iterations=1)
    base = results["Figure 2 (1/round)"]
    rows = [
        [
            label,
            res.rounds,
            res.savings_percent,
            res.savings_percent - base.savings_percent,
        ]
        for label, res in results.items()
    ]
    report(
        render_table(
            ["variant", "rounds", "savings (%)", "Δ vs Figure 2 (pp)"],
            rows,
            title="Rounds-vs-quality frontier [R/W=0.95, C=45%]",
        )
    )
    for label, res in results.items():
        if label == "Figure 2 (1/round)":
            continue
        # Every variant cuts rounds substantially...
        assert res.rounds < 0.7 * base.rounds, label
        # ...while staying within a few points of the eager quality.
        assert res.savings_percent > base.savings_percent - 5.0, label
    benchmark.extra_info["base_rounds"] = base.rounds
    benchmark.extra_info["best_reduction"] = min(
        r.rounds for l, r in results.items() if l != "Figure 2 (1/round)"
    )

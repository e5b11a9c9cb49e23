"""Micro-benchmarks of the library's hot paths.

These are regression guards rather than paper reproductions: cost-matrix
construction, full OTC evaluation, the local benefit engine's round
update, one complete AGT-RAM run on the small preset, and the per-record
cost of the event records the serving loop and the bid rounds build.
"""

import pytest

from _config import BENCH_BASE
from repro.core.agt_ram import run_agt_ram
from repro.drp.benefit import BenefitEngine
from repro.drp.cost import total_otc
from repro.drp.state import ReplicationState
from repro.experiments.instances import paper_instance
from repro.obs.events import BidEvent, RequestEvent
from repro.topology import cost_matrix, random_graph


@pytest.fixture(scope="module")
def instance():
    return paper_instance(BENCH_BASE.with_(rw_ratio=0.9, name="micro"))


def test_cost_matrix_build(benchmark):
    topo = random_graph(BENCH_BASE.n_servers, 0.4, seed=0)
    benchmark(cost_matrix, topo)


def test_total_otc_eval(benchmark, instance):
    state = ReplicationState.primaries_only(instance)
    # A mid-density scheme is the representative workload.
    engine = BenefitEngine(instance, state)
    for _ in range(instance.n_servers):
        vals, objs = engine.best_per_server()
        import numpy as np

        w = int(np.argmax(vals))
        if not np.isfinite(vals[w]) or vals[w] <= 0:
            break
        state.add_replica(w, int(objs[w]))
        engine.notify_allocation(w, int(objs[w]))
    benchmark(total_otc, state)


def test_benefit_engine_round(benchmark, instance):
    state = ReplicationState.primaries_only(instance)
    engine = BenefitEngine(instance, state)

    import numpy as np

    def one_round():
        vals, objs = engine.best_per_server()
        return int(np.argmax(vals))

    benchmark(one_round)


def test_agt_ram_end_to_end(benchmark, instance):
    benchmark.pedantic(lambda: run_agt_ram(instance), rounds=3, iterations=1)


def test_event_record_build_and_read(benchmark):
    """10k ``RequestEvent`` and 10k ``BidEvent`` built positionally, as
    ``serve()`` and the simulator's bid rounds build them, then read."""

    def build_and_read():
        total = 0.0
        for i in range(10_000):
            req = RequestEvent(
                float(i), i, 7, 3, i % 97, "read", 5, 1.5, 1, False, "ok"
            )
            bid = BidEvent(float(i), i // 16, i % 16, i % 97, 2.5, -1)
            total += req.latency + req.tick + req.replica + bid.value + bid.agent
        return total

    benchmark(build_and_read)

"""Micro-benchmarks of the library's hot paths.

These are regression guards rather than paper reproductions: cost-matrix
construction, the large preset's instance build, the delta engine's
start and the NN broadcast of a whole run on the large preset, a random
fault plan, full OTC evaluation, one production clearing round on the
delta engine, one complete AGT-RAM run on the small preset, and the
per-record cost of the event records the serving loop and the bid
rounds build, and the REVB round trip of the serving tail's
string-bearing records.
"""

import hashlib

import pytest

from _config import BENCH_BASE
from repro.core.agt_ram import run_agt_ram
from repro.drp.cost import total_otc
from repro.drp.delta import DeltaBenefitEngine, make_local_engine
from repro.drp.state import ReplicationState
from repro.experiments.instances import paper_instance
from repro.obs.events import (
    BidEvent,
    FailoverEvent,
    FaultEvent,
    HedgeEvent,
    PaymentEvent,
    RequestEvent,
    RequestTimeout,
)
from repro.obs.export import read_events_binary, write_events_binary
from repro.obs.report import bench_config
from repro.runtime.faults import FaultSchedule
from repro.topology import cost_matrix, powerlaw_graph, random_graph


@pytest.fixture(scope="module")
def instance():
    return paper_instance(BENCH_BASE.with_(rw_ratio=0.9, name="micro"))


#: sha256 of each array's bytes in ``paper_instance(bench_config("large"))``,
#: recorded with the undirected all-links Dijkstra and the union-find
#: connectivity the build used before pruning (the smaller presets are
#: pinned in ``tests/test_experiments_config_instances.py``).
LARGE_SHA256 = {
    "cost": "ad79105c477cb85c5f75ddc27581d03f7932ffdd2e65f0b1c0fb501b887734da",
    "reads": "0c629fb59ed4d335d98aa074c7eca20d7e60919b84d082504bf0a5bed97ffadb",
    "writes": "83a4fd6897395563263b812508cb1b50aadde3a1296cc8dff100212125aa7d06",
    "sizes": "a0ef939f077eeb9bc258cff71ae5e434549a0e6479a0998c0dcd49052f8a25c5",
    "capacities": "646c7055232dde4b37ca20e945af154397b7e0ff90c2b9f9d4ba3504b884f902",
    "primaries": "93c6c0407ac1055daa3590335226f5ad1b1fd564196723e3e114b38498daf003",
}


# A fixed 240 servers, whatever the bench scale: the dense p = 0.4 graph
# (11.4k links) takes cost_matrix's pruned path and the sparse power-law
# graph (477 links) its single pass, so every run times both sides of
# the density rule.
@pytest.mark.parametrize(
    "make",
    [lambda: random_graph(240, 0.4, seed=0), lambda: powerlaw_graph(240, 2, seed=0)],
    ids=["dense-random", "sparse-powerlaw"],
)
def test_cost_matrix_build(benchmark, make):
    benchmark(cost_matrix, make())


def test_large_instance_build(benchmark):
    inst = benchmark.pedantic(
        paper_instance, args=(bench_config("large"),), rounds=1, iterations=1
    )
    got = {
        name: hashlib.sha256(getattr(inst, name).tobytes()).hexdigest()
        for name in LARGE_SHA256
    }
    assert got == LARGE_SHA256


@pytest.fixture(scope="module")
def large_run():
    """The large preset (640 x 3200, whatever the bench scale) and the
    (server, object) commits of its AGT-RAM run, in order (660 at the
    preset's seed)."""
    inst = paper_instance(bench_config("large"))
    audit = run_agt_ram(inst, record_audit=True).extra["audit"]
    return inst, [(r.winner, r.obj) for r in audit.rounds if r.winner >= 0]


def test_engine_start_cached(benchmark, large_run):
    """A start on the primaries-only scheme copies the instance's cached
    bests (the run above filled the cache)."""
    inst, _ = large_run
    benchmark.pedantic(
        DeltaBenefitEngine,
        setup=lambda: ((inst, ReplicationState(inst)), {}),
        rounds=20,
    )


def test_engine_start_sweep(benchmark, large_run):
    """A start on any other scheme sweeps all M x N benefit cells."""
    inst, commits = large_run
    state = ReplicationState(inst)
    for server, k in commits:
        state.add_replica(server, k)
    benchmark(DeltaBenefitEngine(inst, state).resync)


def test_nn_broadcast(benchmark, large_run):
    """Every commit's NN broadcast (``add_replica``) of the run, replayed
    on a fresh primaries-only state."""
    inst, commits = large_run

    def broadcast(state):
        for server, k in commits:
            state.add_replica(server, k)

    benchmark.pedantic(
        broadcast, setup=lambda: ((ReplicationState(inst),), {}), rounds=10
    )


# resilience-composed's plan size, 160 agents by 1,000 rounds, whatever
# the bench scale: rare crash starts take FaultSchedule.random's block
# draws and frequent ones its per-round loop, so every run times both
# sides of its selection rule.
@pytest.mark.parametrize("crash_rate", [0.02, 0.2], ids=["blocks", "per-round"])
def test_fault_plan(benchmark, crash_rate):
    benchmark(
        FaultSchedule.random, n_agents=160, horizon=1000, seed=23,
        crash_rate=crash_rate, straggler_rate=0.02,
    )


def test_total_otc_eval(benchmark, instance):
    state = ReplicationState.primaries_only(instance)
    # A mid-density scheme is the representative workload.
    engine = make_local_engine(instance, state)
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
    """One production clearing round: read the delta engine's cached
    bests, take the argmax, commit it and repair the bests — each from
    a fresh primaries-only state."""

    def fresh():
        state = ReplicationState.primaries_only(instance)
        return (state, make_local_engine(instance, state)), {}

    def one_round(state, engine):
        vals, objs = engine.best_view()
        winner = int(vals.argmax())
        obj = int(objs[winner])
        state.add_replica(winner, obj)
        engine.notify_allocation(winner, obj)

    benchmark.pedantic(one_round, setup=fresh, rounds=50)


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


def _serving_tail() -> list:
    """A fixed serving-tail log: 5,000 requests, with failovers, hedges,
    attempt timeouts, payments and faults among them — the kinds whose
    records carry strings."""
    events: list = []
    for i in range(5_000):
        t = float(i)
        failed = i % 50 == 0
        events.append(
            RequestEvent(
                t, i, i % 31, i % 13, i % 97, "write" if i % 10 == 0 else "read",
                -1 if failed else (i * 7) % 13, 1.5 + i % 7, 1 + (i % 3 == 0),
                i % 11 == 0, "failed" if failed else "ok",
            )
        )
        if i % 7 == 0:
            reason = "timeout" if i % 14 else "unhealthy"
            events.append(FailoverEvent(t, i, i % 97, i % 13, (i + 1) % 13, reason))
        if i % 11 == 0:
            events.append(HedgeEvent(t, i, i % 97, i % 13, (i + 2) % 13, i % 13, 4.25))
        if i % 13 == 0:
            events.append(RequestTimeout(t, i, i % 97, i % 13, 1, 8.0))
        if i % 17 == 0:
            events.append(PaymentEvent(t, i, i % 13, 0.5 * i, "second_price", i % 8))
        if i % 19 == 0:
            events.append(
                FaultEvent(t, i, "straggler", i % 13, "bid", f"region {i % 8}")
            )
    return events


#: sha256 of :func:`_serving_tail` as REVB v1, recorded with the segment
#: codec (one ``struct`` run per fixed-width segment, each string on its
#: own) that the per-layout compiled codec replaced.
REVB_SERVING_TAIL_SHA256 = (
    "a15c6385a8ffe9f569cee847f7f163a9073c682008480e12a9d9c8391c1beb1b"
)


def test_revb_string_kinds(benchmark, tmp_path):
    """Write and read the serving tail's string-bearing records, pinned
    to their bytes."""
    events = _serving_tail()
    path = tmp_path / "tail.rev"

    def write_and_read():
        write_events_binary(events, path)
        return read_events_binary(path)

    assert benchmark(write_and_read) == events
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REVB_SERVING_TAIL_SHA256

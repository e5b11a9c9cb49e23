"""Pinned output of the message-level protocol.

The simulator and the sharded central report their protocol's own
record — every message count, every byte, every event — and a faster
implementation of either must reproduce it exactly.  Each constant below
is the sha256 of one tiny-preset run's REVB event log (under
``logical_time()`` + ``ColumnarSink``), its payments, the message byte
total and ``list(log.counts.items())`` (insertion order included).  The
``serve`` constant covers one serving campaign instead: its REVB log and
its report's JSON, drift re-auctions' ``otc_before``/``otc_after``
floats included.

The sweep differential: an agent with an explicit ``TruthfulStrategy()``
in ``strategies`` evaluates its own row (``ReplicaAgent.make_bid``), so
a run in which every agent has one is the per-agent reference for the default
run, which reads truthful bids from the engine.

The round differential: a run without faults, adversary or quarantine
clears its rounds on arrays; the same run under a fault plan that
injects nothing sends every bid through the channel and the central's
message screening, so it is the per-message reference.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import reauction_objects
from repro.core.agt_ram import run_agt_ram
from repro.core.strategies import OverProjection, TruthfulStrategy, UnderProjection
from repro.obs import events as ev
from repro.obs.export import write_events_binary
from repro.runtime.adversary import AdversaryPlan
from repro.runtime.faults import ChannelConfig, FaultPlan, FaultSchedule
from repro.runtime.messages import BidMessage
from repro.runtime.shard import PartitionSchedule, ShardedAGTRam
from repro.runtime.simulator import SemiDistributedSimulator
from repro.serving import ServeConfig, make_traffic, serve, with_demand

from _strategies import drp_instances


def _digest(tmp_path, events, payments, log, *extra) -> str:
    path = write_events_binary(events, tmp_path / "run.rev")
    h = hashlib.sha256(path.read_bytes())
    h.update(np.asarray(payments, dtype=np.float64).tobytes())
    h.update(repr((log.bytes_total, list(log.counts.items()))).encode())
    for item in extra:
        h.update(np.asarray(item).tobytes())
    return h.hexdigest()


def _fault_plan(m: int) -> FaultPlan:
    return FaultPlan(
        schedule=FaultSchedule.random(
            n_agents=m, horizon=300, seed=5, crash_rate=0.05,
            straggler_rate=0.04, central_crash_rate=0.03,
        ),
        channel=ChannelConfig(drop=0.15, delay=0.08, duplicate=0.06),
        seed=5,
    )


#: Simulator configurations, each a function of the agent count.
SIMULATOR_CASES = {
    # The eager protocol, on the delta engine.
    "vectorized": lambda m: dict(),
    "faults": lambda m: dict(faults=_fault_plan(m), central_failure_round=4),
    "adversary": lambda m: dict(
        adversary=AdversaryPlan.random(n_agents=m, fraction=0.25, seed=3)
    ),
    "strategies-lazy": lambda m: dict(
        strategies={
            1: OverProjection(2.0),
            4: UnderProjection(0.5),
            9: OverProjection(1.5),
            12: UnderProjection(0.8),
        },
        nn_update_period=3,
    ),
}

#: Recorded with the implementation that sent one message object per
#: receiver and evaluated every agent's bid from its own row.  Until the
#: simulator's protocol picked its engine, a ``naive`` case ran the eager
#: protocol on the full-matrix engine and held the same pin.  The
#: faults, adversary, reauction and serve cases ran the simulator on
#: the full-matrix engine when recorded and run the delta engine now.
PINNED = {
    "vectorized": "8e275f3a127ebc46918952250c033456eb4fdbfeed4f1ebaba6bc2c268d81309",
    "faults": "84fa45c6fd88c02a0490090daaa08958ddb3ef75f28a44480731a791dd97bd72",
    "adversary": "ff9ce2d2bae3dad0eb13a9b782fdd1e09eac5bf0555618afaf45fb344fb493f6",
    "strategies-lazy": "e89a23fd554e40a72cd7f3b6cdf7805b4543e1ce357f15f8a420bdb1935a2d72",
    "sharded": "0417d97516f5034fa88e2bf5e07b6999a294dc199677686c15cd5047c685bfba",
    "reauction": "aedb9dadd4357ad69b58911c9250ef3876d12f8dae4ef8dadf3871cbcc2387b9",
    # Recorded with the router that sorted each read's replicas with
    # ``np.lexsort`` and the re-auction that evaluated ``otc_of_matrix``
    # twice over the whole instance.
    "serve": "7631f18cb78580af436ed8cfde57cd7fb795f2e39ed3464c48d0fc5bb6a10c6e",
}


def _simulate(instance, keep_messages=False, **kw):
    with ev.logical_time(), ev.capture(ev.ColumnarSink()) as sink:
        res = SemiDistributedSimulator(keep_messages=keep_messages, **kw).run(
            instance
        )
    return res, list(sink.iter_events()), res.extra["metrics"].log


def _shard(instance, keep_messages=False):
    m = instance.n_servers
    plan = PartitionSchedule.random(
        n_regions=4, horizon=60, seed=5, partition_fraction=0.4, crash_rate=0.03
    )
    faults = FaultPlan(
        schedule=FaultSchedule.random(
            n_agents=m, horizon=200, seed=5, crash_rate=0.05, straggler_rate=0.04
        )
    )
    with ev.logical_time(), ev.capture(ev.ColumnarSink()) as sink:
        res = ShardedAGTRam(
            n_regions=4,
            seed=7,
            plan=plan,
            faults=faults,
            adversary=AdversaryPlan.random(n_agents=m, fraction=0.25, seed=3),
            keep_messages=keep_messages,
        ).run(instance)
    return res, list(sink.iter_events()), res.extra["message_log"]


def _assert_log_consistent(log):
    tally = Counter(type(msg).__name__ for msg in log.messages)
    assert list(tally.items()) == list(log.counts.items())
    assert sum(msg.wire_bytes() for msg in log.messages) == log.bytes_total


class TestPinnedProtocolOutput:
    @pytest.mark.parametrize("keep", [False, True], ids=["counts", "kept"])
    @pytest.mark.parametrize("case", sorted(SIMULATOR_CASES))
    def test_simulator_run_is_pinned(self, tiny_instance, tmp_path, case, keep):
        kw = SIMULATOR_CASES[case](tiny_instance.n_servers)
        res, events, log = _simulate(tiny_instance, keep_messages=keep, **kw)
        assert _digest(tmp_path, events, res.extra["payments"], log) == PINNED[case]
        if keep:
            _assert_log_consistent(log)
        else:
            assert log.messages == []

    @pytest.mark.parametrize("keep", [False, True], ids=["counts", "kept"])
    def test_sharded_run_is_pinned(self, tiny_instance, tmp_path, keep):
        res, events, log = _shard(tiny_instance, keep_messages=keep)
        # The case must exercise every fan-out the sharded central has.
        assert res.extra["heals"] >= 1 and res.extra["elections"] >= 1
        assert _digest(tmp_path, events, res.extra["payments"], log) == PINNED[
            "sharded"
        ]
        if keep:
            _assert_log_consistent(log)

    def test_reauction_outcome_is_pinned(self, tiny_instance, tmp_path):
        state = run_agt_ram(tiny_instance).state
        rng = np.random.default_rng(8)
        reads = rng.integers(0, 50, tiny_instance.reads.shape).astype(float)
        with ev.logical_time(), ev.capture(ev.ColumnarSink()) as sink:
            out = reauction_objects(tiny_instance, state, [1, 2, 3, 17, 40], reads=reads)
        sub = out.sub_result
        digest = _digest(
            tmp_path,
            list(sink.iter_events()),
            sub.extra["payments"],
            sub.extra["metrics"].log,
            out.state.x,
            out.state.used,
            out.state.nn_dist,
            out.state.n_replicas_added,
            np.asarray(out.added, dtype=np.int64).reshape(-1, 2),
            np.asarray(out.removed, dtype=np.int64).reshape(-1, 2),
            [out.otc_before, out.otc_after],
        )
        assert digest == PINNED["reauction"]

    def test_serve_campaign_is_pinned(self, tiny_instance, tmp_path):
        n, per_round = 8000, 100
        traffic = make_traffic("flashcrowd", tiny_instance, n, seed=11)
        instance = with_demand(tiny_instance, traffic)
        state = run_agt_ram(instance).state
        schedule = FaultSchedule.random(
            n_agents=instance.n_servers, horizon=n // per_round + 1, seed=5,
            crash_rate=0.05, straggler_rate=0.03,
        )
        with ev.logical_time(), ev.capture(ev.ColumnarSink()) as sink:
            rep = serve(
                instance, state, traffic.stream,
                config=ServeConfig(requests_per_round=per_round),
                faults=schedule, seed=11, workload="flashcrowd", n_requests=n,
            )
        # The campaign must exercise every path the digest covers.
        assert rep.reauctions and rep.failovers and rep.timeouts and rep.hedges
        path = write_events_binary(sink.iter_events(), tmp_path / "serve.rev")
        h = hashlib.sha256(path.read_bytes())
        h.update(json.dumps(rep.to_dict(), sort_keys=True).encode())
        assert h.hexdigest() == PINNED["serve"]


def _observed(instance, **kw):
    with ev.logical_time(), ev.capture() as sink:
        res = SemiDistributedSimulator(**kw).run(instance)
    log = res.extra["metrics"].log
    return (
        res.state.x,
        res.extra["payments"],
        res.extra["utilities"],
        list(log.counts.items()),
        log.bytes_total,
        [e.to_dict() for e in sink.events],
    )


class TestEngineSweepDifferential:
    @pytest.mark.parametrize(
        "protocol",
        [
            dict(),
            dict(nn_update_period=2),
            dict(nn_update_period=3),
        ],
        ids=["eager", "lazy-2", "lazy-3"],
    )
    @given(instance=drp_instances())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_engine_sweep_matches_per_agent_bids(self, instance, protocol):
        every = {i: TruthfulStrategy() for i in range(instance.n_servers)}
        swept = _observed(instance, **protocol)
        reference = _observed(instance, strategies=every, **protocol)
        np.testing.assert_array_equal(swept[0], reference[0])
        np.testing.assert_array_equal(swept[1], reference[1])
        np.testing.assert_array_equal(swept[2], reference[2])
        assert swept[3:] == reference[3:]


#: Routes every bid through the (lossless) channel; without checkpoints
#: it emits no event the array round does not.
NULL_CHANNEL = FaultPlan(checkpoint_period=0)

#: Over- and under-projecting agents; every generated instance has
#: servers 0 and 1.
MISREPORTS = {0: OverProjection(2.0), 1: UnderProjection(0.5)}


def _protocol_record(instance, **kw):
    with ev.logical_time(), ev.capture() as sink:
        res = SemiDistributedSimulator(**kw).run(instance)
    return res, res.extra["metrics"].log, [e.to_dict() for e in sink.events]


class TestArrayRoundDifferential:
    @pytest.mark.parametrize("keep", [False, True], ids=["counts", "kept"])
    @pytest.mark.parametrize(
        "protocol",
        [
            dict(),
            dict(nn_update_period=2),
            dict(strategies=MISREPORTS),
        ],
        ids=["eager", "lazy-2", "misreports"],
    )
    @given(instance=drp_instances())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_array_round_matches_per_message_round(self, instance, protocol, keep):
        arr, arr_log, arr_events = _protocol_record(
            instance, keep_messages=keep, **protocol
        )
        ref, ref_log, ref_events = _protocol_record(
            instance, keep_messages=keep, faults=NULL_CHANNEL, **protocol
        )
        np.testing.assert_array_equal(arr.state.x, ref.state.x)
        np.testing.assert_array_equal(arr.extra["payments"], ref.extra["payments"])
        np.testing.assert_array_equal(arr.extra["utilities"], ref.extra["utilities"])
        assert list(arr_log.counts.items()) == list(ref_log.counts.items())
        assert arr_log.bytes_total == ref_log.bytes_total
        assert (
            arr.extra["round_series"].to_dict() == ref.extra["round_series"].to_dict()
        )
        assert arr_events == ref_events
        # Line 18: an agent whose report is -inf has left; it sends nothing.
        assert all(e["value"] != -np.inf for e in arr_events if e["type"] == "bid")
        if keep:
            _assert_log_consistent(arr_log)
            assert arr_log.messages == ref_log.messages
        else:
            assert arr_log.messages == []

    @pytest.mark.parametrize("faults", [None, NULL_CHANNEL], ids=["array", "per-message"])
    def test_departed_agent_sends_nothing(self, tiny_instance, faults):
        # Server 3 has no room beyond its primaries, so L_3 is empty from
        # the first round on.
        load = np.zeros(tiny_instance.n_servers, dtype=np.int64)
        np.add.at(load, tiny_instance.primaries, tiny_instance.sizes)
        capacities = tiny_instance.capacities.copy()
        capacities[3] = load[3]
        instance = replace(tiny_instance, capacities=capacities)
        res, log, events = _protocol_record(instance, keep_messages=True, faults=faults)
        assert res.rounds > 0
        assert not any(
            isinstance(msg, BidMessage) and msg.sender == 3 for msg in log.messages
        )
        assert not any(e["type"] == "bid" and e["agent"] == 3 for e in events)
        assert all(e["value"] != -np.inf for e in events if e["type"] == "bid")

    @pytest.mark.parametrize("strategies", [None, MISREPORTS], ids=["truthful", "misreports"])
    @pytest.mark.parametrize("engine", ["naive", "vectorized"])
    @given(instance=drp_instances())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_array_round_matches_flat_run(self, instance, engine, strategies):
        sim = SemiDistributedSimulator(strategies=strategies).run(instance)
        flat = run_agt_ram(instance, engine=engine, strategies=strategies)
        np.testing.assert_array_equal(sim.state.x, flat.state.x)
        np.testing.assert_array_equal(sim.extra["payments"], flat.extra["payments"])
        assert sim.rounds == flat.rounds

"""The sharded central's array round against the per-bid round it replaced.

``tests/_shard_reference.py`` keeps the regional round that screened
``BidMessage`` objects one by one and decided through
:meth:`CentralBody.decide`.  Every run here goes both ways and must give
the same event stream, the same message log (counts in insertion order,
bytes, and the kept message list), the same placement and the same
payments.  The column validator and detector are also checked against
the per-bid ones on arbitrary bid lists (unknown senders, malformed
fields, retransmissions, equivocation), and the flat simulator's
adversary and lossy-channel paths go through both screens.
"""

from __future__ import annotations

import json
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.drp.benefit import BenefitEngine
from repro.drp.state import ReplicationState
from repro.experiments.config import ExperimentConfig
from repro.experiments.instances import paper_instance
from repro.obs import events as ev
from repro.runtime.adversary import (
    BEHAVIORS,
    AdversaryInjector,
    AdversaryPlan,
    ManipulationDetector,
    MessageValidator,
    QuarantinePolicy,
    TrustBoundary,
    _isclose,
)
from repro.runtime.faults import ChannelConfig, FaultPlan, FaultSchedule
from repro.runtime.messages import BidMessage
from repro.runtime.shard import PartitionSchedule, ShardedAGTRam
from repro.runtime.simulator import SemiDistributedSimulator
from repro.utils.rng import as_generator

from _shard_reference import (
    reference_inspect,
    reference_round,
    reference_screen,
    reference_validate,
)

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _record(run):
    with ev.logical_time(), ev.capture(ev.ColumnarSink()) as sink:
        result = run()
    return result, [
        json.dumps(e.to_dict(), sort_keys=True) for e in sink.iter_events()
    ]


def _outcome(result, events, log):
    return {
        "events": events,
        "counts": list(log.counts.items()),
        "bytes": log.bytes_total,
        "messages": [repr(m) for m in log.messages],
        "x": result.state.x.tobytes(),
        "otc": result.otc,
        "rounds": result.rounds,
    }


def _sharded(instance, **kw):
    result, events = _record(lambda: ShardedAGTRam(**kw).run(instance))
    out = _outcome(result, events, result.extra["message_log"])
    out["payments"] = np.asarray(result.extra["payments"]).tobytes()
    out["extra"] = {
        k: result.extra.get(k)
        for k in ("boundary", "adversary", "revoked", "reauctioned",
                  "heals", "elections", "checkpoints", "crashes_injected")
    }
    return out


def _both(run, instance, **kw):
    new = run(instance, **kw)
    with reference_round():
        ref = run(instance, **kw)
    return new, ref


@pytest.fixture(scope="module")
def tight_instance():
    """16 x 60, read-heavy, 10% capacity: bidders run out of room, so
    overclaims and capacity rejections happen."""
    return paper_instance(
        ExperimentConfig(
            n_servers=16, n_objects=60, total_requests=8_000, rw_ratio=0.95,
            capacity_fraction=0.1, seed=101, name="tight",
        )
    )


def _sharded_config(m, *, behaviors, fraction, activity, seed, crash,
                    straggle, split, central_crash, regions, keep):
    kw = dict(n_regions=regions, seed=seed, keep_messages=keep)
    if behaviors:
        kw["adversary"] = AdversaryPlan.random(
            n_agents=m, fraction=fraction, behaviors=behaviors,
            activity=activity, seed=seed,
        )
        kw["quarantine"] = QuarantinePolicy(strikes=2, probation=3)
    if crash or straggle:
        kw["faults"] = FaultPlan(
            schedule=FaultSchedule.random(
                n_agents=m, horizon=150, seed=seed, crash_rate=crash,
                straggler_rate=straggle,
            ),
            checkpoint_period=3,
        )
    if split or central_crash:
        kw["plan"] = PartitionSchedule.random(
            n_regions=regions, horizon=40, seed=seed,
            partition_fraction=split, crash_rate=central_crash,
        )
    return kw


class TestShardedRound:
    @pytest.mark.parametrize("behavior", BEHAVIORS)
    def test_each_behaviour(self, tight_instance, behavior):
        kw = _sharded_config(
            tight_instance.n_servers, behaviors=(behavior,), fraction=0.25,
            activity=1.0, seed=3, crash=0.0, straggle=0.0, split=0.0,
            central_crash=0.0, regions=4, keep=True,
        )
        new, ref = _both(_sharded, tight_instance, **kw)
        assert new == ref
        assert new["extra"]["adversary"]["injected"][behavior] > 0

    def test_every_plane_at_once(self, tiny_instance):
        kw = _sharded_config(
            tiny_instance.n_servers, behaviors=BEHAVIORS, fraction=0.4,
            activity=0.7, seed=5, crash=0.05, straggle=0.08, split=0.4,
            central_crash=0.05, regions=4, keep=True,
        )
        new, ref = _both(_sharded, tiny_instance, **kw)
        assert new == ref
        kinds = {json.loads(e)["type"] for e in new["events"]}
        assert {"fault", "election", "partition", "heal", "validation",
                "manipulation", "quarantine"} <= kinds
        straggled = [
            e for e in new["events"]
            if json.loads(e)["type"] == "fault"
            and json.loads(e)["kind"] == "straggler"
        ]
        assert straggled

    @_SETTINGS
    @given(
        behaviors=st.lists(st.sampled_from(BEHAVIORS), max_size=4, unique=True),
        fraction=st.sampled_from([0.2, 0.35, 0.5]),
        activity=st.sampled_from([1.0, 0.6]),
        seed=st.integers(0, 10_000),
        crash=st.sampled_from([0.0, 0.04, 0.1]),
        straggle=st.sampled_from([0.0, 0.05, 0.15]),
        split=st.sampled_from([0.0, 0.3, 0.6]),
        central_crash=st.sampled_from([0.0, 0.05]),
        regions=st.integers(2, 4),
        keep=st.booleans(),
        which=st.integers(0, 2),
    )
    def test_random_compositions(
        self, tiny_instance, read_heavy_instance, tight_instance, which,
        **planes,
    ):
        instance = (tiny_instance, read_heavy_instance, tight_instance)[which]
        kw = _sharded_config(instance.n_servers, **planes)
        new, ref = _both(_sharded, instance, **kw)
        assert new == ref

    def test_repeated_payloads(self, tight_instance):
        """A scripted sender that sends its payload twice (a retransmission
        the validator lets through) is one bid to the central and one
        ``BidEvent``."""
        corrupt = AdversaryInjector.corrupt_round

        def twice(self, rnd, bids, state, instance):
            sends = corrupt(self, rnd, bids, state, instance)
            return {
                a: payloads * 2 if a in self.plan.agents else payloads
                for a, payloads in sends.items()
            }

        kw = _sharded_config(
            tight_instance.n_servers, behaviors=("inflate", "collude"),
            fraction=0.3, activity=0.5, seed=2, crash=0.0, straggle=0.0,
            split=0.0, central_crash=0.0, regions=3, keep=True,
        )
        with mock.patch.object(AdversaryInjector, "corrupt_round", twice):
            new, ref = _both(_sharded, tight_instance, **kw)
        assert new == ref
        assert any('"seq": 1' in m or "seq=1" in m for m in new["messages"])

    @pytest.mark.parametrize("engine", ["naive", "vectorized"])
    def test_engines(self, read_heavy_instance, engine, monkeypatch):
        kw = _sharded_config(
            read_heavy_instance.n_servers, behaviors=BEHAVIORS, fraction=0.3,
            activity=1.0, seed=11, crash=0.03, straggle=0.05, split=0.3,
            central_crash=0.0, regions=3, keep=False,
        )
        if engine == "naive":
            # The reference engine, swapped in where the central builds
            # its engines; it sweeps a fork's state instead of starting
            # from the bests the delta engine hands over.
            monkeypatch.setattr(
                "repro.runtime.shard.make_local_engine",
                lambda instance, state, start=None: BenefitEngine(
                    instance, state
                ),
            )
        new, ref = _both(_sharded, read_heavy_instance, **kw)
        assert new == ref


class TestBidRuns:
    def test_recording_sink_sees_the_per_bid_stream(self, tight_instance):
        """The regional centrals hand each round's bids over as one
        packed run; a sink with the default ``emit_bids`` sees the
        ``BidEvent`` per logged bid the per-bid round emits, field types
        included."""
        kw = _sharded_config(
            tight_instance.n_servers, behaviors=BEHAVIORS, fraction=0.3,
            activity=0.8, seed=7, crash=0.04, straggle=0.05, split=0.3,
            central_crash=0.05, regions=4, keep=False,
        )

        def recorded():
            with ev.logical_time(), ev.capture(ev.RecordingSink()) as sink:
                ShardedAGTRam(**kw).run(tight_instance)
            return sink.events

        new = recorded()
        with reference_round():
            ref = recorded()
        assert pickle.dumps(new) == pickle.dumps(ref)
        kinds = {e.type for e in new}
        assert {"bid", "adversary", "validation", "partition"} <= kinds


def _simulated(instance, **kw):
    result, events = _record(lambda: SemiDistributedSimulator(**kw).run(instance))
    out = _outcome(result, events, result.extra["metrics"].log)
    out["payments"] = np.asarray(result.extra["payments"]).tobytes()
    out["trust"] = result.extra.get("trust_summary")
    return out


class TestSimulatorScreen:
    """The flat simulator screens through ``TrustBoundary.screen``, the
    message-list adapter over the column checks."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_adversary_path(self, tiny_instance, seed):
        plan = AdversaryPlan.random(
            n_agents=tiny_instance.n_servers, fraction=0.4, seed=seed
        )
        new, ref = _both(
            _simulated, tiny_instance, adversary=plan, keep_messages=True
        )
        assert new == ref
        assert new["trust"]["manipulations_flagged"] > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lossy_channel_path(self, tiny_instance, seed):
        m = tiny_instance.n_servers
        faults = FaultPlan(
            schedule=FaultSchedule.random(
                n_agents=m, horizon=200, seed=seed, crash_rate=0.03,
                straggler_rate=0.04, central_crash_rate=0.02,
            ),
            channel=ChannelConfig(drop=0.15, delay=0.08, duplicate=0.2),
            seed=seed,
        )
        new, ref = _both(
            _simulated, tiny_instance, faults=faults,
            quarantine=QuarantinePolicy(), keep_messages=True,
        )
        assert new == ref
        # Duplicated deliveries put several copies of one bid in a round.
        senders = [
            json.loads(e)["agent"] for e in new["events"]
            if json.loads(e)["type"] == "fault"
            and json.loads(e)["kind"] == "duplicate"
        ]
        assert senders

    def test_adversary_over_a_lossy_channel(self, tiny_instance):
        m = tiny_instance.n_servers
        new, ref = _both(
            _simulated, tiny_instance,
            adversary=AdversaryPlan.random(n_agents=m, fraction=0.3, seed=4),
            faults=FaultPlan(
                channel=ChannelConfig(drop=0.1, delay=0.05, duplicate=0.2),
                seed=4,
            ),
        )
        assert new == ref


# -- the screens on arbitrary bid lists ---------------------------------------


_values = st.one_of(
    st.floats(-50.0, 50.0, allow_nan=False),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0, -0.0]),
)


@st.composite
def _bid_lists(draw):
    """Rounds of bids from a small instance: in-range and unknown senders,
    malformed objects, values and sequence numbers, retransmitted copies
    and conflicting payloads."""
    m, n = 16, 60
    pool = draw(st.lists(
        st.tuples(
            st.one_of(st.integers(0, m - 1), st.sampled_from([-1, m, m + 5])),
            st.one_of(st.integers(0, n - 1), st.sampled_from([-3, n, n + 7])),
            _values,
            st.one_of(st.integers(0, 2), st.sampled_from([-1, 65, 9999])),
        ),
        max_size=24,
    ))
    bids = [BidMessage(sender=a, receiver=-1, obj=o, value=v, seq=q)
            for a, o, v, q in pool]
    # Retransmit some bids verbatim, at their sender's next sequence number.
    for i in draw(st.lists(st.integers(0, max(len(bids) - 1, 0)), max_size=6)):
        if bids:
            b = bids[i]
            bids.append(BidMessage(sender=b.sender, receiver=-1, obj=b.obj,
                                   value=b.value, seq=b.seq + 1))
    return draw(st.permutations(bids))


def _state(instance, seed):
    """A state with some replicas placed, so hosted and overclaimed
    objects exist."""
    state = ReplicationState.primaries_only(instance)
    rng = as_generator(seed)
    for _ in range(40):
        i = int(rng.integers(instance.n_servers))
        k = int(rng.integers(instance.n_objects))
        if state.can_host(i, k):
            state.add_replica(i, k)
    return state


def _rows(events):
    return [json.dumps(e.to_dict(), sort_keys=True) for e in events]


class TestScreens:
    @settings(max_examples=200, deadline=None)
    @given(bids=_bid_lists(), seed=st.integers(0, 50))
    def test_validator(self, tiny_instance, bids, seed):
        state = _state(tiny_instance, seed)
        new, ref = MessageValidator(tiny_instance), MessageValidator(tiny_instance)
        with ev.logical_time():
            accepted, events = new.screen(bids, state, rnd=3)
        with ev.logical_time():
            want, want_events = reference_validate(ref, bids, state, 3)
        assert [id(b) for b in accepted] == [id(b) for b in want]
        assert _rows(events) == _rows(want_events)
        assert new.rejections == ref.rejections

    @settings(max_examples=200, deadline=None)
    @given(bids=_bid_lists(), seed=st.integers(0, 50), matrix=st.booleans())
    def test_detector(self, tiny_instance, bids, seed, matrix):
        state = _state(tiny_instance, seed)
        engine = BenefitEngine(tiny_instance, state)
        # The detector sees validator-accepted bids; honest copies of the
        # engine's own cells sit among them.
        accepted, _ = reference_validate(
            MessageValidator(tiny_instance), bids, state, 0
        )
        accepted += [
            BidMessage(sender=a, receiver=-1, obj=int(k),
                       value=float(engine.matrix[a, k]))
            for a, k in enumerate(engine.best_per_server()[1][:4])
        ]
        oracle = engine.matrix if matrix else engine
        new, ref = ManipulationDetector(), ManipulationDetector()
        with ev.logical_time():
            events = new.inspect(accepted, oracle, rnd=2)
        with ev.logical_time():
            want = reference_inspect(ref, accepted, oracle, 2)
        assert _rows(events) == _rows(want)
        assert new.flags == ref.flags

    @settings(max_examples=100, deadline=None)
    @given(bids=_bid_lists(), seed=st.integers(0, 50))
    def test_boundary(self, tiny_instance, bids, seed):
        state = _state(tiny_instance, seed)
        engine = BenefitEngine(tiny_instance, state)
        policy = QuarantinePolicy(strikes=1, probation=2)
        new = TrustBoundary(tiny_instance, policy)
        ref = TrustBoundary(tiny_instance, policy)
        with ev.logical_time(), ev.capture(ev.RecordingSink()) as got:
            accepted, offended = new.screen(bids, state, engine, 5)
        with ev.logical_time(), ev.capture(ev.RecordingSink()) as want:
            ref_accepted, ref_offended = reference_screen(
                ref, bids, state, engine, 5
            )
        assert [id(b) for b in accepted] == [id(b) for b in ref_accepted]
        assert offended == ref_offended
        assert _rows(got.events) == _rows(want.events)
        assert new.summary_dict() == ref.summary_dict()


_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-10.0, 10.0),
)


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(st.tuples(_floats, _floats), min_size=1, max_size=20),
    tol=st.sampled_from([1e-6, 1e-3, 0.5]),
)
def test_isclose_is_math_isclose(pairs, tol):
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    want = [math.isclose(x, y, rel_tol=tol, abs_tol=tol) for x, y in pairs]
    assert _isclose(a, b, tol, tol).tolist() == want


# -- the fault schedule's per-round masks and array draws ---------------------


def _scalar_schedule(n_agents, horizon, seed, crash_rate, mean_outage,
                     straggler_rate, central_crash_rate, central_crashes):
    """``FaultSchedule.random`` with one uniform per Bernoulli cell, as it
    was written before the planes were drawn as arrays."""
    rng = as_generator(seed)
    crashes: dict[int, list[tuple[int, int]]] = {}
    for agent in range(n_agents):
        rnd = 0
        while rnd < horizon:
            if rng.random() < crash_rate:
                length = 1 + int(rng.geometric(1.0 / mean_outage))
                crashes.setdefault(agent, []).append((rnd, rnd + length))
                rnd += length
            rnd += 1
    stragglers = {
        (rnd, agent)
        for agent in range(n_agents)
        for rnd in range(horizon)
        if rng.random() < straggler_rate
    }
    central = set(int(r) for r in central_crashes)
    central.update(
        rnd for rnd in range(horizon) if rng.random() < central_crash_rate
    )
    schedule = FaultSchedule(
        agent_crashes={a: tuple(iv) for a, iv in crashes.items()},
        central_crashes=frozenset(central),
        stragglers=frozenset(stragglers),
    )
    return schedule, rng.random()


class TestFaultScheduleArrays:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2026])
    @pytest.mark.parametrize("horizon", [0, 1, 9, 120])
    @pytest.mark.parametrize(
        "rates",
        [(0.0, 0.0, 0.0), (0.05, 0.04, 0.03), (0.0, 0.3, 0.0), (0.2, 0.0, 0.5)],
        ids=["null", "mixed", "stragglers", "crashes"],
    )
    def test_random_equals_the_scalar_draws(self, seed, horizon, rates):
        crash, straggle, central = rates
        kw = dict(
            n_agents=11, horizon=horizon, seed=seed, crash_rate=crash,
            mean_outage=2.5, straggler_rate=straggle,
            central_crash_rate=central, central_crashes=(3,),
        )
        want, _ = _scalar_schedule(**kw)
        assert FaultSchedule.random(**kw) == want

    @pytest.mark.parametrize("seed", [0, 5])
    def test_masks_match_the_per_agent_queries(self, seed):
        schedule = FaultSchedule.random(
            n_agents=12, horizon=40, seed=seed, crash_rate=0.1,
            straggler_rate=0.1,
        )
        for rnd in range(45):
            down = schedule.down_mask(rnd, 12)
            late = schedule.straggler_mask(rnd, 12)
            assert down.tolist() == [schedule.agent_down(a, rnd) for a in range(12)]
            assert late.tolist() == [
                schedule.is_straggler(rnd, a) for a in range(12)
            ]

    def test_masks_ignore_agents_beyond_the_run(self):
        schedule = FaultSchedule(
            agent_crashes={9: ((0, 5),)}, stragglers=frozenset({(1, 9)})
        )
        assert not schedule.down_mask(0, 4).any()
        assert not schedule.straggler_mask(1, 4).any()
        assert schedule.down_mask(0, 10)[9] and schedule.straggler_mask(1, 10)[9]

    def test_masks_ignore_negative_agents(self):
        # agent_down(a, rnd) is False for every real agent a; a negative
        # id must not index the masks from the end.
        schedule = FaultSchedule(
            agent_crashes={-1: ((0, 5),)}, stragglers=frozenset({(1, -2)})
        )
        assert not schedule.down_mask(0, 4).any()
        assert not schedule.straggler_mask(1, 4).any()

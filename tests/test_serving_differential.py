"""The serving loop against the one it replaced (``tests/_serve_reference.py``).

``serve`` derives each input of a request's decision when that input
changes; the reference recomputes every input per request.  Over small
instances with crash and straggler schedules, hedging on and off,
shedding, writes and drift re-auctions, both must emit the same event
stream under :func:`~repro.obs.events.logical_time` and return the same
report.  The stream decoder and the hedge quantile are checked against
their references on their own as well.
"""

from __future__ import annotations

import math
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.agt_ram import run_agt_ram
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.obs import events as ev
from repro.runtime.faults import FaultSchedule
from repro.serving import BackoffPolicy, ServeConfig, serve
from repro.serving.policies import QuantileTracker
from repro.serving.streams import ServeRequest, epoch_stream
from repro.workload.drift import drifting_workloads
from repro.workload.flashcrowd import flash_crowd_workloads

from _serve_reference import (
    ReferenceQuantileTracker,
    reference_epoch_stream,
    reference_serve,
)
from _strategies import drp_instances


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _run(fn, instance, state, requests, **kw):
    with ev.logical_time(), ev.capture() as sink:
        report = fn(instance, state, iter(requests), **kw)
    return [e.to_dict() for e in sink.events], report.to_dict()


@st.composite
def campaigns(draw):
    """An instance, a placement, a request list and the loop's knobs."""
    instance = draw(drp_instances())
    m, n = instance.n_servers, instance.n_objects
    placed = draw(st.sampled_from(["auction", "primaries", "random"]))
    if placed == "auction":
        state = run_agt_ram(instance).state
    elif placed == "primaries":
        state = ReplicationState.primaries_only(instance)
    else:
        # Whatever extra copies fit, in random order.
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        state = ReplicationState.primaries_only(instance)
        for s, k in zip(rng.integers(0, m, 2 * n), rng.integers(0, n, 2 * n)):
            if state.can_host(int(s), int(k)):
                state.add_replica(int(s), int(k))
    n_requests = draw(st.integers(0, 160))
    requests = draw(
        st.lists(
            st.tuples(
                st.integers(0, m - 1),
                st.integers(0, n - 1),
                st.sampled_from(["read"] * 4 + ["write"]),
            ),
            min_size=n_requests,
            max_size=n_requests,
        )
    )
    per_round = draw(st.integers(1, 20))
    horizon = n_requests // per_round + 1
    faults = FaultSchedule.random(
        n_agents=m,
        horizon=horizon,
        seed=draw(st.integers(0, 2**16)),
        crash_rate=draw(st.sampled_from([0.0, 0.1, 0.3])),
        mean_outage=draw(st.sampled_from([1.0, 3.0])),
        straggler_rate=draw(st.sampled_from([0.0, 0.1, 0.4])),
    )
    config = ServeConfig(
        timeout=draw(st.sampled_from([None, 4.0, 12.0])),
        max_attempts=draw(st.integers(1, 4)),
        backoff=BackoffPolicy(jitter=draw(st.sampled_from([0.0, 0.5]))),
        hedge_enabled=draw(st.booleans()),
        hedge_quantile=draw(st.sampled_from([0.5, 0.95])),
        rate=draw(st.sampled_from([1.0, 0.9, 0.5])),
        burst=draw(st.sampled_from([1.0, 5.0])),
        # 0.5 puts a failed server's score exactly on the threshold.
        health_alpha=draw(st.sampled_from([0.3, 0.5, 0.9])),
        latency_noise=draw(st.sampled_from([0.0, 1.0, 4.0])),
        straggler_factor=draw(st.sampled_from([1.0, 10.0])),
        requests_per_round=per_round,
        drift_window=draw(st.integers(5, 40)),
        drift_threshold=draw(st.sampled_from([0.05, 0.2, 0.5])),
        drift_top_k=draw(st.integers(1, 4)),
        max_reauctions=draw(st.integers(0, 2)),
    )
    return dict(
        instance=instance,
        state=state,
        requests=[ServeRequest(s, s, k, kind) for s, k, kind in requests],
        config=config,
        faults=faults,
        seed=draw(st.integers(0, 2**16)),
    )


class TestServeMatchesReference:
    @given(campaign=campaigns())
    @settings(max_examples=120, deadline=None)
    def test_same_events_and_report(self, campaign):
        instance, state, requests = (
            campaign.pop("instance"),
            campaign.pop("state"),
            campaign.pop("requests"),
        )
        got = _run(serve, instance, state, requests, **campaign)
        want = _run(reference_serve, instance, state, requests, **campaign)
        assert got[1] == want[1]
        assert got[0] == want[0]

    def test_fixed_campaigns_cover_every_path(self):
        """Fixed campaigns that between them shed, hedge, time out, fail
        over, fail requests and re-auction, each compared as above."""
        seen = set()
        for seed in range(12):
            campaign = _fixed_campaign(seed)
            instance, state, requests = (
                campaign.pop("instance"),
                campaign.pop("state"),
                campaign.pop("requests"),
            )
            got = _run(serve, instance, state, requests, **campaign)
            assert got == _run(reference_serve, instance, state, requests, **campaign)
            seen.update(e["type"] for e in got[0])
            report = got[1]
            if report["failed"]:
                seen.add("failed")
        assert {
            "shed", "hedge", "request_timeout", "failover", "reauction",
            "failed", "bid",
        } <= seen


def _fixed_campaign(seed: int) -> dict:
    """A deterministic campaign: a 6 x 8 instance drawn the way
    ``drp_instances`` draws one, uniform requests (which drift from the
    instance's demand), crashes, stragglers and a tight budget."""
    rng = np.random.default_rng(seed)
    m, n = 6, 8
    raw = rng.uniform(1.0, 10.0, size=(m, m))
    cost = np.triu(raw, 1)
    cost = cost + cost.T
    sizes = rng.integers(1, 4, size=n)
    primaries = rng.integers(0, m, size=n)
    load = np.zeros(m, dtype=np.int64)
    np.add.at(load, primaries, sizes)
    instance = DRPInstance(
        cost=cost,
        reads=rng.integers(0, 20, size=(m, n)),
        writes=rng.integers(0, 6, size=(m, n)),
        sizes=sizes,
        capacities=load + 6,
        primaries=primaries,
    )
    state = run_agt_ram(instance).state
    kinds = np.where(rng.random(300) < 0.1, "write", "read")
    servers = rng.integers(0, m, 300)
    objs = rng.integers(0, n, 300)
    requests = [
        ServeRequest(int(s), int(s), int(k), str(kind))
        for s, k, kind in zip(servers, objs, kinds)
    ]
    config = ServeConfig(
        timeout=6.0,
        max_attempts=int(rng.integers(1, 4)),
        rate=0.7 if seed % 2 else 1.0,
        burst=3.0,
        hedge_enabled=seed % 3 != 0,
        hedge_quantile=0.5,
        latency_noise=2.0,
        requests_per_round=10,
        drift_window=30,
        drift_threshold=0.1,
        max_reauctions=2,
    )
    faults = FaultSchedule.random(
        n_agents=m, horizon=31, seed=seed, crash_rate=0.2,
        mean_outage=3.0, straggler_rate=0.2,
    )
    return dict(
        instance=instance, state=state, requests=requests, config=config,
        faults=faults, seed=seed,
    )


class TestEpochStreamMatchesReference:
    @given(
        m=st.integers(1, 6),
        n=st.integers(1, 8),
        n_epochs=st.integers(1, 4),
        n_requests=st.integers(0, 300),
        chunk_size=st.integers(1, 70),
        crowd=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_requests(self, m, n, n_epochs, n_requests, chunk_size, crowd, seed):
        if crowd:
            epochs, _ = flash_crowd_workloads(
                m, n, n_epochs, total_requests=500, crowd_size=1, seed=seed
            )
        else:
            epochs = drifting_workloads(
                m, n, n_epochs, total_requests=500, seed=seed
            )
        got = list(epoch_stream(epochs, n_requests, seed=seed, chunk_size=chunk_size))
        want = list(
            reference_epoch_stream(
                epochs, n_requests, seed=seed, chunk_size=chunk_size
            )
        )
        assert got == want
        assert [type(r.server) for r in got] == [int] * len(got)


#: Latencies as the loop observes them: non-negative, often tied.
latencies = st.one_of(
    st.sampled_from([0.0, 1.0, 1.5, 2.0, 7.25]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.just(math.inf),
)


class TestQuantileTracker:
    @given(
        q=st.one_of(
            st.sampled_from([0.5, 0.95, 0.99]),
            st.floats(min_value=1e-9, max_value=1 - 1e-9),
        ),
        window=st.integers(1, 70),
        min_samples=st.integers(1, 8),
        refresh=st.integers(1, 9),
        observed=st.lists(latencies, max_size=200),
    )
    @settings(max_examples=300, deadline=None)
    @example(q=0.95, window=512, min_samples=1, refresh=64, observed=[3.0])
    @example(q=0.5, window=4, min_samples=1, refresh=1, observed=[2.0] * 9)
    def test_equals_np_quantile_bit_for_bit(
        self, q, window, min_samples, refresh, observed
    ):
        """Checked after every observation, so every refresh boundary
        (and every step served from the cache) is compared."""
        kw = dict(window=window, min_samples=min_samples, refresh=refresh)
        tracker = QuantileTracker(q, **kw)
        reference = ReferenceQuantileTracker(q, **kw)
        for latency in observed:
            tracker.observe(latency)
            reference.observe(latency)
            got, want = tracker.quantile(), reference.quantile()
            assert _bits(got) == _bits(want) or (math.isnan(got) and math.isnan(want))

    @given(
        # No -0.0: numpy's partition may order a window's +0.0 and -0.0
        # unlike a stable sort, which can flip the sign of a zero
        # quantile.  Latencies are never -0.0.
        values=st.lists(
            st.floats(allow_nan=False, width=64).filter(
                lambda v: not (v == 0.0 and math.copysign(1.0, v) < 0)
            ),
            min_size=1,
            max_size=80,
        ),
        q=st.floats(min_value=1e-9, max_value=1 - 1e-9),
    )
    @settings(max_examples=300, deadline=None)
    def test_window_value_is_np_quantile(self, values, q):
        tracker = QuantileTracker(q, window=len(values), min_samples=1)
        for v in values:
            tracker.observe(v)
        got = tracker.quantile()
        want = float(np.quantile(np.asarray(values), q))
        assert _bits(got) == _bits(want) or (math.isnan(got) and math.isnan(want))

    def test_nan_in_the_window_gives_nan(self):
        tracker = QuantileTracker(0.5, window=4, min_samples=1)
        for v in (1.0, math.nan, 2.0):
            tracker.observe(v)
        assert math.isnan(tracker.quantile())

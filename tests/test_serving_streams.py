"""Unit tests for the serving workload adapters."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.serving import (
    SERVE_WORKLOADS,
    make_traffic,
    with_demand,
    worldcup_stream,
)
from repro.serving.streams import ServeRequest, epoch_stream
from repro.utils.rng import substream
from repro.workload.drift import WorkloadEpoch, drifting_workloads
from repro.workload.synthetic import SyntheticWorkload


class TestWorldcupStream:
    def test_deterministic_per_seed(self):
        a = list(worldcup_stream(500, n_servers=8, n_objects=20, seed=4))
        b = list(worldcup_stream(500, n_servers=8, n_objects=20, seed=4))
        assert a == b
        c = list(worldcup_stream(500, n_servers=8, n_objects=20, seed=5))
        assert a != c

    def test_shapes_and_kinds(self):
        reqs = list(worldcup_stream(300, n_servers=8, n_objects=20, seed=1))
        assert len(reqs) == 300
        assert all(0 <= r.server < 8 and 0 <= r.obj < 20 for r in reqs)
        assert {r.kind for r in reqs} <= {"read", "write"}

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            list(worldcup_stream(-1, n_servers=4, n_objects=8))


class TestEpochStream:
    def test_splits_quota_across_epochs(self):
        epochs = drifting_workloads(4, 10, 3, total_requests=500, seed=2)
        reqs = list(epoch_stream(epochs, 100, seed=0))
        assert len(reqs) == 100

    def test_empty_epoch_list_rejected(self):
        with pytest.raises(ConfigurationError):
            list(epoch_stream([], 10))

    def test_deterministic(self):
        epochs = drifting_workloads(4, 10, 2, total_requests=500, seed=2)
        a = list(epoch_stream(epochs, 200, seed=9))
        b = list(epoch_stream(epochs, 200, seed=9))
        assert a == b

    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_chunk_size_below_one_rejected(self, chunk_size):
        # 0 used to loop forever drawing empty chunks; -1 reached numpy.
        epochs = drifting_workloads(3, 4, 1, total_requests=50, seed=1)
        with pytest.raises(ConfigurationError, match="chunk_size"):
            next(epoch_stream(epochs, 10, chunk_size=chunk_size))


def _choice_stream(epochs, n_requests, *, seed, chunk_size):
    """:func:`epoch_stream` drawing each chunk with ``rng.choice``."""
    rng = substream(seed, "serving/epoch-stream")
    per, extra = divmod(n_requests, len(epochs))
    for e, epoch in enumerate(epochs):
        quota = per + (1 if e < extra else 0)
        w = epoch.workload
        m, n = w.reads.shape
        combined = np.concatenate([w.reads.ravel(), w.writes.ravel()])
        p = combined / combined.sum()
        emitted = 0
        while emitted < quota:
            batch = min(chunk_size, quota - emitted)
            idx = rng.choice(len(combined), size=batch, p=p)
            servers, objs = np.divmod(idx % (m * n), n)
            for server, obj, is_write in zip(
                servers.tolist(), objs.tolist(), (idx >= m * n).tolist()
            ):
                yield ServeRequest(
                    server, server, obj, "write" if is_write else "read"
                )
            emitted += batch


@st.composite
def _epochs(draw):
    """1-3 epochs over one (M, N) shape, demand cells drawn with zeros
    and skew (never an epoch without demand)."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    epochs = []
    for i in range(draw(st.integers(1, 3))):
        cells = draw(
            st.lists(
                st.integers(0, 10) | st.integers(0, 10**6),
                min_size=2 * m * n,
                max_size=2 * m * n,
            ).filter(any)
        )
        rw = np.array(cells, dtype=np.int64).reshape(2, m, n)
        epochs.append(
            WorkloadEpoch(
                index=i,
                workload=SyntheticWorkload(
                    reads=rw[0], writes=rw[1],
                    sizes=np.ones(n, dtype=np.int64), rw_ratio=0.9,
                ),
                popularity_rank=np.arange(n),
            )
        )
    return epochs


class TestEpochStreamDraws:
    @given(
        epochs=_epochs(),
        n_requests=st.integers(0, 300),
        seed=st.integers(0, 2**32),
        chunk_size=st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_requests_equal_choice_draws(
        self, epochs, n_requests, seed, chunk_size
    ):
        got = list(
            epoch_stream(epochs, n_requests, seed=seed, chunk_size=chunk_size)
        )
        want = list(
            _choice_stream(epochs, n_requests, seed=seed, chunk_size=chunk_size)
        )
        assert got == want

    def test_drifting_epochs_equal_choice_draws(self):
        epochs = drifting_workloads(6, 40, 3, total_requests=2_000, seed=3)
        kw = dict(seed=11, chunk_size=97)
        assert list(epoch_stream(epochs, 1_000, **kw)) == list(
            _choice_stream(epochs, 1_000, **kw)
        )


class TestMakeTraffic:
    @pytest.mark.parametrize("workload", SERVE_WORKLOADS)
    def test_demand_matches_instance_shape(self, tiny_instance, workload):
        traffic = make_traffic(workload, tiny_instance, 1000, seed=3)
        m, n = tiny_instance.n_servers, tiny_instance.n_objects
        assert traffic.reads.shape == (m, n)
        assert traffic.writes.shape == (m, n)
        assert traffic.reads.sum() + traffic.writes.sum() > 0

    def test_worldcup_demand_matches_served_prefix(self, tiny_instance):
        # The calibration pass aggregates an identically-seeded prefix
        # of the stream the campaign will actually serve.
        n = 800
        traffic = make_traffic(
            "worldcup", tiny_instance, n, seed=5, calibration=n
        )
        reads = np.zeros_like(traffic.reads)
        writes = np.zeros_like(traffic.writes)
        for req in traffic.stream:
            if req.kind == "read":
                reads[req.server, req.obj] += 1
            else:
                writes[req.server, req.obj] += 1
        np.testing.assert_array_equal(reads, traffic.reads)
        np.testing.assert_array_equal(writes, traffic.writes)

    def test_unknown_workload_rejected(self, tiny_instance):
        with pytest.raises(ConfigurationError):
            make_traffic("nope", tiny_instance, 100)

    def test_with_demand_replaces_only_demand(self, tiny_instance):
        traffic = make_traffic("drift", tiny_instance, 400, seed=1)
        inst = with_demand(tiny_instance, traffic)
        np.testing.assert_array_equal(inst.reads, traffic.reads)
        np.testing.assert_array_equal(inst.writes, traffic.writes)
        np.testing.assert_array_equal(inst.cost, tiny_instance.cost)
        np.testing.assert_array_equal(
            inst.primaries, tiny_instance.primaries
        )
        np.testing.assert_array_equal(
            inst.capacities, tiny_instance.capacities
        )

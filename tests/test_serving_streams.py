"""Unit tests for the serving workload adapters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serving import (
    SERVE_WORKLOADS,
    make_traffic,
    with_demand,
    worldcup_stream,
)
from repro.serving.streams import epoch_stream
from repro.workload.drift import drifting_workloads


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

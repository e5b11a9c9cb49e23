"""Tests for repro.drp.state."""

import numpy as np
import pytest

from repro.drp.feasibility import check_state
from repro.drp.state import ReplicationState
from repro.errors import CapacityError, ConfigurationError


class TestInitialState:
    def test_primaries_present(self, line_instance):
        st = ReplicationState.primaries_only(line_instance)
        assert st.x[0, 0] and st.x[2, 1]
        assert st.x.sum() == 2

    def test_nn_is_primary(self, line_instance):
        st = ReplicationState.primaries_only(line_instance)
        assert st.nn_dist[1, 0] == 1.0
        assert st.nn_dist[0, 1] == 2.0  # server 0 reads obj 1 from server 2

    def test_used_equals_primary_load(self, line_instance):
        st = ReplicationState.primaries_only(line_instance)
        assert np.array_equal(st.used, line_instance.primary_load)

    def test_invariants(self, line_instance):
        check_state(ReplicationState.primaries_only(line_instance))


class TestAddReplica:
    def test_updates_x_and_capacity(self, line_instance):
        st = ReplicationState.primaries_only(line_instance)
        st.add_replica(1, 0)
        assert st.x[1, 0]
        assert st.used[1] == 1
        assert st.n_replicas_added == 1

    def test_nn_relaxation(self, line_instance):
        st = ReplicationState.primaries_only(line_instance)
        st.add_replica(2, 0)  # now server 1 is closer to replica at 2? no: c(1,2)=1 == c(1,0)=1
        assert st.nn_dist[2, 0] == 0.0
        assert st.nn_dist[1, 0] == 1.0  # unchanged (tie; keeps earlier server)
        st.add_replica(1, 0)
        assert st.nn_dist[1, 0] == 0.0

    def test_duplicate_rejected(self, line_instance):
        st = ReplicationState.primaries_only(line_instance)
        st.add_replica(1, 0)
        with pytest.raises(ConfigurationError):
            st.add_replica(1, 0)

    def test_capacity_enforced(self, line_instance):
        from repro.drp.instance import DRPInstance

        # Same topology but object 1 is huge: it cannot fit anywhere else.
        inst = DRPInstance(
            cost=line_instance.cost,
            reads=line_instance.reads,
            writes=line_instance.writes,
            sizes=np.array([1, 5]),
            capacities=np.array([3, 2, 5]),
            primaries=np.array([0, 2]),
        )
        st = ReplicationState.primaries_only(inst)
        with pytest.raises(CapacityError):
            st.add_replica(1, 1)

    def test_invariants_after_adds(self, line_instance):
        st = ReplicationState.primaries_only(line_instance)
        st.add_replica(1, 0)
        st.add_replica(0, 1)
        check_state(st)


class TestQueries:
    def test_replica_set(self, line_instance):
        st = ReplicationState.primaries_only(line_instance)
        st.add_replica(1, 0)
        assert np.array_equal(st.replica_set(0), [0, 1])

    def test_replica_counts(self, line_instance):
        st = ReplicationState.primaries_only(line_instance)
        st.add_replica(1, 0)
        assert np.array_equal(st.replica_counts(), [2, 1])

    def test_total_replicas(self, line_instance):
        st = ReplicationState.primaries_only(line_instance)
        assert st.total_replicas() == 0
        st.add_replica(1, 1)
        assert st.total_replicas() == 1

    def test_can_host(self, line_instance):
        st = ReplicationState.primaries_only(line_instance)
        assert st.can_host(1, 0)
        assert not st.can_host(0, 0)  # already the primary
        st.add_replica(1, 0)
        st.add_replica(1, 1)
        assert not st.can_host(1, 0)  # full

    def test_residual(self, line_instance):
        st = ReplicationState.primaries_only(line_instance)
        assert np.array_equal(st.residual, [2, 2, 2])


class TestFromMatrix:
    def test_roundtrip(self, tiny_instance):
        st = ReplicationState.primaries_only(tiny_instance)
        rng = np.random.default_rng(0)
        for _ in range(20):
            i = int(rng.integers(tiny_instance.n_servers))
            k = int(rng.integers(tiny_instance.n_objects))
            if st.can_host(i, k):
                st.add_replica(i, k)
        rebuilt = ReplicationState.from_matrix(tiny_instance, st.x)
        assert np.array_equal(rebuilt.x, st.x)
        assert np.allclose(rebuilt.nn_dist, st.nn_dist)
        assert np.array_equal(rebuilt.used, st.used)
        check_state(rebuilt)

    def test_missing_primary_rejected(self, line_instance):
        x = np.zeros((3, 2), dtype=bool)
        x[0, 0] = True  # object 1's primary at server 2 missing
        with pytest.raises(ConfigurationError):
            ReplicationState.from_matrix(line_instance, x)

    def test_wrong_shape_rejected(self, line_instance):
        with pytest.raises(ConfigurationError):
            ReplicationState.from_matrix(line_instance, np.zeros((2, 2), dtype=bool))


class TestReplaceColumns:
    def _grown(self, instance, seed):
        st = ReplicationState.primaries_only(instance)
        rng = np.random.default_rng(seed)
        for _ in range(40):
            i = int(rng.integers(instance.n_servers))
            k = int(rng.integers(instance.n_objects))
            if st.can_host(i, k):
                st.add_replica(i, k)
        return st

    def test_matches_from_matrix(self, tiny_instance):
        st = self._grown(tiny_instance, 1)
        target = self._grown(tiny_instance, 2).x
        ks = np.array([1, 4, 9, 30])
        st.replace_columns(ks, target[:, ks])
        x = self._grown(tiny_instance, 1).x
        x[:, ks] = target[:, ks]
        ref = ReplicationState.from_matrix(tiny_instance, x)
        np.testing.assert_array_equal(st.x, ref.x)
        np.testing.assert_array_equal(st.used, ref.used)
        np.testing.assert_array_equal(st.nn_dist, ref.nn_dist)
        assert st.n_replicas_added == ref.n_replicas_added
        assert not st.last_nn_changed.any()
        check_state(st)

    def test_bad_columns_rejected(self, line_instance):
        st = ReplicationState.primaries_only(line_instance)
        cols = st.x[:, [1]]
        with pytest.raises(ConfigurationError, match="shape"):
            st.replace_columns([0, 1], cols)
        with pytest.raises(ConfigurationError, match="primary"):
            st.replace_columns([1], np.zeros((3, 1), dtype=bool))
        for ks in ([-1], [2], [1, 1], [1.0], [True]):
            with pytest.raises(ConfigurationError, match="distinct integer"):
                st.replace_columns(ks, np.ones((3, len(ks)), dtype=bool))


class TestCopy:
    def test_independent(self, line_instance):
        st = ReplicationState.primaries_only(line_instance)
        dup = st.copy()
        dup.add_replica(1, 0)
        assert not st.x[1, 0]
        assert st.used[1] == 0
        assert dup.x[1, 0]

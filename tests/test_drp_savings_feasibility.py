"""Tests for savings metric and feasibility checks."""

import numpy as np
import pytest

from repro.drp.cost import primary_only_otc
from repro.drp.feasibility import check_instance, check_state
from repro.drp.instance import DRPInstance
from repro.drp.savings import otc_savings_percent
from repro.drp.state import ReplicationState
from repro.errors import InfeasibleInstanceError


class TestSavings:
    def test_zero_for_primaries_only(self, tiny_instance):
        st = ReplicationState.primaries_only(tiny_instance)
        assert otc_savings_percent(st) == pytest.approx(0.0)

    def test_positive_after_good_replica(self, line_instance):
        st = ReplicationState.primaries_only(line_instance)
        st.add_replica(2, 0)  # hand-verified benefit of 10 on baseline 25
        assert otc_savings_percent(st) == pytest.approx(100.0 * 10.0 / 25.0)

    def test_bounded_above(self, read_heavy_instance):
        from repro.baselines.greedy import GreedyPlacer

        res = GreedyPlacer().place(read_heavy_instance)
        assert 0.0 < res.savings_percent < 100.0

    def test_can_go_negative_for_bad_scheme(self, write_heavy_instance):
        # Replicating everything on a write-heavy instance adds broadcast
        # cost exceeding the read savings.
        inst = write_heavy_instance
        x = np.ones((inst.n_servers, inst.n_objects), dtype=bool)
        # Keep it feasible: only fill as capacity allows, column by column.
        x = ReplicationState.primaries_only(inst).x.copy()
        st = ReplicationState.primaries_only(inst)
        for i in range(inst.n_servers):
            for k in range(inst.n_objects):
                if st.can_host(i, k):
                    st.add_replica(i, k)
        assert otc_savings_percent(st) < 0.0

    def test_zero_baseline(self):
        inst = DRPInstance(
            cost=np.zeros((2, 2)),
            reads=np.zeros((2, 2), dtype=int),
            writes=np.zeros((2, 2), dtype=int),
            sizes=np.array([1, 1]),
            capacities=np.array([2, 2]),
            primaries=np.array([0, 1]),
        )
        st = ReplicationState.primaries_only(inst)
        assert otc_savings_percent(st) == 0.0


class TestCheckState:
    def test_fresh_state_passes(self, tiny_instance):
        check_state(ReplicationState.primaries_only(tiny_instance))

    def test_detects_missing_primary(self, line_instance):
        st = ReplicationState.primaries_only(line_instance)
        st.x[0, 0] = False
        with pytest.raises(InfeasibleInstanceError, match="primary"):
            check_state(st)

    def test_detects_used_drift(self, line_instance):
        st = ReplicationState.primaries_only(line_instance)
        st.used[1] += 1
        with pytest.raises(InfeasibleInstanceError, match="used"):
            check_state(st)

    def test_detects_stale_nn(self, line_instance):
        st = ReplicationState.primaries_only(line_instance)
        st.x[1, 0] = True  # bypass add_replica: NN table now stale
        st.used[1] += 1
        with pytest.raises(InfeasibleInstanceError, match="NN"):
            check_state(st)

    def test_detects_overload(self, line_instance):
        st = ReplicationState.primaries_only(line_instance)
        st.add_replica(1, 0)
        st.add_replica(1, 1)
        # Force an extra unit through the back door.
        st.x[0, 1] = True
        st.used[0] += 1
        st.nn_dist[0, 1] = 0.0
        check_state(st)  # still fine: server 0 has room
        st.used[0] = 99
        with pytest.raises(InfeasibleInstanceError):
            check_state(st)


class TestCheckInstance:
    def test_valid_passes(self, tiny_instance):
        check_instance(tiny_instance)

    def test_detects_corruption(self, line_instance):
        import copy

        inst = copy.deepcopy(line_instance)
        inst.cost[0, 1] = -5.0
        with pytest.raises(Exception):
            check_instance(inst)

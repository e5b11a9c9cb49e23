"""Unit tests for the incremental re-auction (repro.core.reauction)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_sub_instance, reauction_objects
from repro.core.agt_ram import run_agt_ram
from repro.drp.cost import otc_of_matrix
from repro.drp.feasibility import check_state
from repro.drp.state import ReplicationState
from repro.errors import ConfigurationError
from repro.runtime.simulator import SemiDistributedSimulator

from _strategies import drp_instances


@pytest.fixture(scope="module")
def placed(tiny_instance):
    return SemiDistributedSimulator().run(tiny_instance)


class TestBuildSubInstance:
    def test_slices_affected_columns(self, tiny_instance, placed):
        ks = [2, 5, 11]
        sub = build_sub_instance(tiny_instance, placed.state, ks)
        assert sub.n_servers == tiny_instance.n_servers
        assert sub.n_objects == len(ks)
        np.testing.assert_array_equal(sub.cost, tiny_instance.cost)
        np.testing.assert_array_equal(
            sub.sizes, tiny_instance.sizes[np.array(ks)]
        )
        np.testing.assert_array_equal(
            sub.primaries, tiny_instance.primaries[np.array(ks)]
        )

    def test_capacity_excludes_unaffected_replicas(
        self, tiny_instance, placed
    ):
        ks = np.array([0, 1])
        sub = build_sub_instance(tiny_instance, placed.state, ks)
        keep = placed.state.x.copy()
        keep[:, ks] = False
        np.testing.assert_allclose(
            sub.capacities,
            tiny_instance.capacities - keep @ tiny_instance.sizes,
        )
        # Feasible by construction: the affected primaries fit, since
        # they are stored right now under the same accounting.
        check_state(
            type(placed.state).primaries_only(sub)
        )

    def test_demand_overrides_used(self, tiny_instance, placed):
        reads = np.full_like(tiny_instance.reads, 3.0)
        writes = np.full_like(tiny_instance.writes, 1.0)
        sub = build_sub_instance(
            tiny_instance, placed.state, [4, 9], reads=reads, writes=writes
        )
        assert (sub.reads == 3.0).all()
        assert (sub.writes == 1.0).all()

    def test_bad_inputs_rejected(self, tiny_instance, placed):
        with pytest.raises(ConfigurationError):
            build_sub_instance(tiny_instance, placed.state, [])
        with pytest.raises(ConfigurationError):
            build_sub_instance(
                tiny_instance, placed.state, [tiny_instance.n_objects]
            )
        with pytest.raises(ConfigurationError):
            build_sub_instance(
                tiny_instance, placed.state, [0], reads=np.zeros((2, 2))
            )
        # Non-integral and boolean ids used to truncate to 2, 5 and 0, 1.
        for ids in ([2.7, 5.2], [True, False], np.array([2.0, 5.0])):
            with pytest.raises(ConfigurationError, match="object id"):
                build_sub_instance(tiny_instance, placed.state, ids)
            with pytest.raises(ConfigurationError, match="object id"):
                reauction_objects(tiny_instance, placed.state, ids)


class TestReauctionObjects:
    def test_merge_keeps_unaffected_columns(self, tiny_instance, placed):
        ks = [3, 7, 12]
        outcome = reauction_objects(tiny_instance, placed.state, ks)
        untouched = np.ones(tiny_instance.n_objects, dtype=bool)
        untouched[np.array(ks)] = False
        np.testing.assert_array_equal(
            outcome.state.x[:, untouched], placed.state.x[:, untouched]
        )
        check_state(outcome.state)

    @pytest.mark.parametrize("demand", [False, True], ids=["same", "override"])
    def test_merged_state_matches_from_matrix(self, tiny_instance, placed, demand):
        ks = [0, 5, 6, 20, 33]
        kw = {}
        if demand:
            rng = np.random.default_rng(4)
            kw["reads"] = rng.integers(0, 60, tiny_instance.reads.shape)
        outcome = reauction_objects(tiny_instance, placed.state, ks, **kw)
        x = placed.state.x.copy()
        x[:, ks] = outcome.sub_result.state.x
        ref = ReplicationState.from_matrix(tiny_instance, x)
        np.testing.assert_array_equal(outcome.state.x, ref.x)
        np.testing.assert_array_equal(outcome.state.used, ref.used)
        np.testing.assert_array_equal(outcome.state.nn_dist, ref.nn_dist)
        assert outcome.state.n_replicas_added == ref.n_replicas_added
        check_state(outcome.state)

    def test_delta_matches_states(self, tiny_instance, placed):
        ks = [0, 5, 6, 20]
        outcome = reauction_objects(tiny_instance, placed.state, ks)
        for server, obj in outcome.added:
            assert obj in ks
            assert outcome.state.x[server, obj]
            assert not placed.state.x[server, obj]
        for server, obj in outcome.removed:
            assert obj in ks
            assert not outcome.state.x[server, obj]
            assert placed.state.x[server, obj]
            # Primaries never drop their copy.
            assert tiny_instance.primaries[obj] != server

    def test_same_demand_reauction_does_not_regress(
        self, tiny_instance, placed
    ):
        # Re-auctioning under the demand the placement was built for
        # starts from primaries-only, so it may land on a (slightly)
        # different local optimum — but OTC stays in the same ballpark
        # and never beats the mechanism by construction violations.
        ks = list(range(0, tiny_instance.n_objects, 4))
        outcome = reauction_objects(tiny_instance, placed.state, ks)
        assert outcome.otc_before == pytest.approx(
            otc_of_matrix(tiny_instance, placed.state.x)
        )
        assert outcome.otc_after == pytest.approx(
            otc_of_matrix(tiny_instance, outcome.state.x)
        )

    def test_otc_evaluated_against_override_demand(
        self, tiny_instance, placed
    ):
        rng = np.random.default_rng(8)
        reads = rng.integers(0, 50, tiny_instance.reads.shape).astype(float)
        writes = np.ones_like(tiny_instance.writes, dtype=float)
        outcome = reauction_objects(
            tiny_instance, placed.state, [1, 2, 3], reads=reads, writes=writes
        )
        from dataclasses import replace

        shifted = replace(tiny_instance, reads=reads, writes=writes)
        assert outcome.otc_before == pytest.approx(
            otc_of_matrix(shifted, placed.state.x)
        )
        assert outcome.otc_after == pytest.approx(
            otc_of_matrix(shifted, outcome.state.x)
        )
        assert outcome.improved == (outcome.otc_after < outcome.otc_before)

    def test_custom_placer_is_used(self, tiny_instance, placed):
        calls = []

        def placer(sub):
            calls.append(sub)
            return SemiDistributedSimulator().run(sub)

        outcome = reauction_objects(
            tiny_instance, placed.state, [2], placer=placer
        )
        assert len(calls) == 1
        assert calls[0].n_objects == 1
        assert outcome.sub_result.rounds >= 0

    def test_input_state_not_mutated(self, tiny_instance, placed):
        before = placed.state.x.copy()
        reauction_objects(tiny_instance, placed.state, [0, 1])
        np.testing.assert_array_equal(placed.state.x, before)


def reference_otc(instance, x):
    """``otc_of_matrix`` as written before it was split into per-object
    read terms: the read part accumulated inline, object by object."""
    o = instance.sizes.astype(np.float64)
    c = instance.cost
    read_cost = 0.0
    for k in range(instance.n_objects):
        reps = np.flatnonzero(x[:, k])
        d = c[:, reps[0]] if len(reps) == 1 else c[:, reps].min(axis=1)
        read_cost += float(o[k]) * float(instance.reads[:, k] @ d)
    cp = instance.primary_cost_rows()
    b = np.einsum("ik,ki->k", x, cp)
    w_total = instance.total_write_counts().astype(np.float64)
    to_primary = np.einsum("ik,ki,k->", instance.writes, cp, o)
    broadcast = float((w_total * b * o).sum())
    own_copy_refund = np.einsum("ik,ik,ki,k->", instance.writes, x, cp, o)
    return read_cost + float(to_primary + broadcast - own_copy_refund)


class TestSharedOtcTerms:
    """``otc_before`` / ``otc_after`` share every read term outside the
    re-auctioned columns and must keep ``otc_of_matrix``'s bits."""

    @given(instance=drp_instances(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_equal_to_otc_of_matrix(self, instance, data):
        m, n = instance.n_servers, instance.n_objects
        # Several replicas per object after an auction, one before.
        if data.draw(st.booleans(), label="auctioned"):
            state = run_agt_ram(instance).state
        else:
            state = ReplicationState.primaries_only(instance)
        # Unsorted, possibly repeated ids.
        objects = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n),
            label="objects",
        )
        reads = writes = None
        if data.draw(st.booleans(), label="override"):
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            reads = rng.uniform(0.0, 40.0, (m, n))
            writes = rng.uniform(0.0, 8.0, (m, n))
        out = reauction_objects(instance, state, objects, reads=reads, writes=writes)
        evaluated = (
            instance
            if reads is None
            else replace(instance, reads=reads, writes=writes)
        )
        assert out.otc_before == otc_of_matrix(evaluated, state.x)
        assert out.otc_after == otc_of_matrix(evaluated, out.state.x)
        assert out.otc_after == reference_otc(evaluated, out.state.x)

    @given(instance=drp_instances(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_column_ordered_overrides(self, instance, seed):
        """Demand overrides whose columns are contiguous (Fortran
        order): each object's read column is then unit-stride, so the
        distance operand's layout decides how BLAS sums the dot."""
        rng = np.random.default_rng(seed)
        state = run_agt_ram(instance).state
        m, n = instance.n_servers, instance.n_objects
        reads = np.asfortranarray(rng.uniform(0.0, 40.0, (m, n)))
        writes = np.asfortranarray(rng.uniform(0.0, 8.0, (m, n)))
        objects = rng.integers(0, n, size=2).tolist()
        out = reauction_objects(instance, state, objects, reads=reads, writes=writes)
        evaluated = replace(instance, reads=reads, writes=writes)
        assert out.otc_before == otc_of_matrix(evaluated, state.x)
        assert out.otc_after == otc_of_matrix(evaluated, out.state.x)

    @given(instance=drp_instances(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_otc_of_matrix_keeps_its_bits(self, instance, seed):
        rng = np.random.default_rng(seed)
        x = rng.random((instance.n_servers, instance.n_objects)) < 0.4
        x[instance.primaries, np.arange(instance.n_objects)] = True
        reads = rng.uniform(0.0, 40.0, x.shape)
        evaluated = replace(instance, reads=reads)
        assert otc_of_matrix(evaluated, x) == reference_otc(evaluated, x)

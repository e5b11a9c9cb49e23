"""Unit tests for nearest-replica routing and placement swapping."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.drp.state import ReplicationState
from repro.errors import ConfigurationError
from repro.serving import RequestRouter

from _strategies import drp_instances


def router_on(line_instance, extra=()):
    state = ReplicationState.primaries_only(line_instance)
    for server, obj in extra:
        state.add_replica(server, obj)
    return RequestRouter(line_instance, state)


class TestReadCandidates:
    def test_primaries_only_routes_to_primary(self, line_instance):
        r = router_on(line_instance)
        assert r.read_candidates(0, 0) == [0]
        assert r.read_candidates(0, 1) == [2]

    def test_nearest_first_with_replica(self, line_instance):
        # Object 1 (primary at 2) replicated at 0: origin 0 prefers 0.
        r = router_on(line_instance, extra=[(0, 1)])
        assert r.read_candidates(0, 1) == [0, 2]
        assert r.read_candidates(2, 1) == [2, 0]

    def test_tie_breaks_to_lower_server_id(self, line_instance):
        # Origin 1 is at distance 1 from both 0 and 2.
        r = router_on(line_instance, extra=[(0, 1)])
        assert r.read_candidates(1, 1) == [0, 2]

    def test_exclude_drops_servers(self, line_instance):
        r = router_on(line_instance, extra=[(0, 1)])
        assert r.read_candidates(0, 1, exclude=(0,)) == [2]
        assert r.read_candidates(0, 1, exclude=(0, 2)) == []

    def test_route_read_returns_minus_one_when_empty(self, line_instance):
        r = router_on(line_instance)
        assert r.route_read(0, 0, exclude=(0,)) == -1
        assert r.route_read(1, 0) == 0


class TestWritesAndSwap:
    def test_write_target_is_primary(self, line_instance):
        r = router_on(line_instance, extra=[(0, 1)])
        assert r.write_target(0) == 0
        assert r.write_target(1) == 2

    def test_swap_state_changes_routing(self, line_instance):
        r = router_on(line_instance)
        assert r.read_candidates(0, 1) == [2]
        replicated = ReplicationState.primaries_only(line_instance)
        replicated.add_replica(0, 1)
        old = r.swap_state(replicated)
        assert r.read_candidates(0, 1) == [0, 2]
        assert not old.x[0, 1]

    def test_candidates_match_replica_set(self, tiny_instance):
        from repro.runtime.simulator import SemiDistributedSimulator

        result = SemiDistributedSimulator().run(tiny_instance)
        r = RequestRouter(tiny_instance, result.state)
        for obj in range(0, tiny_instance.n_objects, 7):
            cands = r.read_candidates(3, obj)
            assert sorted(cands) == sorted(
                int(s) for s in result.state.replica_set(obj)
            )
            costs = tiny_instance.cost[3, np.array(cands)]
            assert all(costs[i] <= costs[i + 1] for i in range(len(costs) - 1))


def lexsort_candidates(instance, state, origin, obj, exclude=()):
    """The read order as computed before replica lists were cached: the
    replica set filtered by ``exclude``, ``np.lexsort`` by (cost, id)."""
    reps = state.replica_set(obj)
    dropped = set(int(s) for s in exclude)
    if dropped:
        reps = np.array([s for s in reps if int(s) not in dropped], dtype=np.int64)
    if len(reps) == 0:
        return []
    costs = instance.cost[origin, reps]
    order = np.lexsort((reps, costs))
    return [int(s) for s in reps[order]]


def random_state(instance, rng):
    x = rng.random((instance.n_servers, instance.n_objects)) < 0.5
    x[instance.primaries, np.arange(instance.n_objects)] = True
    return ReplicationState.from_matrix(instance, x)


#: ``exclude`` in every form a caller may pass.
EXCLUDE_FORMS = {
    "tuple": tuple,
    "set": set,
    "array": lambda ids: np.array(ids, dtype=np.int64),
    "generator": lambda ids: (s for s in ids),
}


class TestCachedOrderMatchesLexsort:
    @given(instance=drp_instances(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_across_swaps(self, instance, data):
        m, n = instance.n_servers, instance.n_objects
        if data.draw(st.booleans(), label="integer costs"):
            # Whole-number costs make equal-cost replicas common.
            instance = replace(instance, cost=np.rint(instance.cost))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        states = [random_state(instance, rng) for _ in range(3)]
        router = RequestRouter(instance, states[0])
        for i, state in enumerate(states):
            if i:
                assert router.swap_state(state) is states[i - 1]
            for _ in range(2 * n):
                origin = data.draw(st.integers(0, m - 1), label="origin")
                obj = data.draw(st.integers(0, n - 1), label="obj")
                ids = data.draw(st.lists(st.integers(0, m - 1), max_size=3))
                form = data.draw(st.sampled_from(sorted(EXCLUDE_FORMS)))
                got = router.read_candidates(
                    origin, obj, exclude=EXCLUDE_FORMS[form](ids)
                )
                assert got == lexsort_candidates(instance, state, origin, obj, ids)
                assert router.read_candidates(origin, obj) == lexsort_candidates(
                    instance, state, origin, obj
                )

    def test_swap_drops_cached_lists(self, tiny_instance):
        rng = np.random.default_rng(3)
        first, second = (random_state(tiny_instance, rng) for _ in range(2))
        router = RequestRouter(tiny_instance, first)
        n = tiny_instance.n_objects
        for obj in range(n):
            assert router.read_candidates(5, obj) == lexsort_candidates(
                tiny_instance, first, 5, obj
            )
        router.swap_state(second)
        assert any(
            not np.array_equal(first.x[:, k], second.x[:, k]) for k in range(n)
        )
        for obj in range(n):
            assert router.read_candidates(5, obj) == lexsort_candidates(
                tiny_instance, second, 5, obj
            )

    def test_returned_list_is_the_callers(self, line_instance):
        r = router_on(line_instance, extra=[(0, 1)])
        r.read_candidates(0, 0).append(99)
        r.read_candidates(0, 1).clear()
        assert r.read_candidates(0, 0) == [0]
        assert r.read_candidates(0, 1) == [0, 2]


class TestOutOfRangeIds:
    @pytest.mark.parametrize(
        "origin, obj",
        [(-1, 0), ("M", 0), (0, -1), (0, "N")],
        ids=["origin-negative", "origin-M", "obj-negative", "obj-N"],
    )
    def test_read_candidates_rejects(self, tiny_instance, origin, obj):
        m, n = tiny_instance.n_servers, tiny_instance.n_objects
        origin = m if origin == "M" else origin
        obj = n if obj == "N" else obj
        r = RequestRouter(tiny_instance, ReplicationState.primaries_only(tiny_instance))
        with pytest.raises(ConfigurationError):
            r.read_candidates(origin, obj)
        with pytest.raises(ConfigurationError):
            r.route_read(origin, obj, exclude=(0,))

    @pytest.mark.parametrize("obj", [-1, "N"], ids=["negative", "N"])
    def test_write_target_rejects(self, tiny_instance, obj):
        obj = tiny_instance.n_objects if obj == "N" else obj
        r = RequestRouter(tiny_instance, ReplicationState.primaries_only(tiny_instance))
        with pytest.raises(ConfigurationError):
            r.write_target(obj)

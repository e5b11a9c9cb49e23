"""Tests for repro.topology.graph."""

import networkx as nx
import numpy as np
import pytest
from _topology_reference import ensure_connected as reference_ensure_connected
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.topology.graph import Topology, _components, ensure_connected


def triangle() -> Topology:
    return Topology(
        n_nodes=3, edges=[(0, 1), (1, 2), (0, 2)], weights=[1.0, 2.0, 3.0]
    )


class TestTopologyValidation:
    def test_valid(self):
        t = triangle()
        assert t.n_edges == 3

    def test_zero_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology(n_nodes=0, edges=np.empty((0, 2)), weights=np.empty(0))

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="weights"):
            Topology(n_nodes=2, edges=[(0, 1)], weights=[1.0, 2.0])

    def test_endpoint_out_of_range(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            Topology(n_nodes=2, edges=[(0, 5)], weights=[1.0])

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError, match="loops"):
            Topology(n_nodes=2, edges=[(1, 1)], weights=[1.0])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            Topology(n_nodes=2, edges=[(0, 1)], weights=[0.0])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            Topology(n_nodes=3, edges=[(0, 1), (1, 0)], weights=[1.0, 1.0])

    def test_positions_shape_checked(self):
        with pytest.raises(ConfigurationError, match="positions"):
            Topology(
                n_nodes=2,
                edges=[(0, 1)],
                weights=[1.0],
                positions=np.zeros((3, 2)),
            )


class TestTopologyQueries:
    def test_degree(self):
        assert np.array_equal(triangle().degree(), [2, 2, 2])

    def test_degree_isolated(self):
        t = Topology(n_nodes=3, edges=[(0, 1)], weights=[1.0])
        assert np.array_equal(t.degree(), [1, 1, 0])

    def test_adjacency_symmetric(self):
        a = triangle().adjacency()
        assert np.array_equal(a, a.T)
        assert a[0, 1] == 1.0 and a[0, 2] == 3.0

    def test_iter_edges(self):
        edges = list(triangle().iter_edges())
        assert (0, 1, 1.0) in edges and len(edges) == 3

    def test_is_connected_true(self):
        assert triangle().is_connected()

    def test_is_connected_false(self):
        t = Topology(n_nodes=3, edges=[(0, 1)], weights=[1.0])
        assert not t.is_connected()

    def test_single_node_connected(self):
        t = Topology(n_nodes=1, edges=np.empty((0, 2)), weights=np.empty(0))
        assert t.is_connected()

    def test_to_networkx(self):
        g = triangle().to_networkx()
        assert g.number_of_nodes() == 3
        assert g[0][2]["weight"] == 3.0


class TestEnsureConnected:
    def test_already_connected_adds_nothing(self, rng):
        added = ensure_connected([(0, 1), (1, 2)], 3, rng, lambda u, v: 1.0)
        assert added == []

    def test_bridges_components(self, rng):
        added = ensure_connected([(0, 1), (2, 3)], 4, rng, lambda u, v: 5.0)
        assert len(added) == 1
        u, v, w = added[0]
        assert w == 5.0
        assert {u < 2, v < 2} == {True, False}

    def test_all_isolated(self, rng):
        added = ensure_connected([], 4, rng, lambda u, v: 1.0)
        assert len(added) == 3  # chain of 4 singletons


@st.composite
def edge_lists(draw):
    """Few pairs over many nodes: isolated nodes and many components,
    self-loops and repeats included, as a list or an array."""
    n = draw(st.integers(1, 300))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)
    )
    if draw(st.booleans()):
        return n, np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return n, pairs


class TestConnectivityMatchesReference:
    """Components on scipy arrays give the union-find reference's bridges,
    in the same order, from the same draws."""

    @settings(max_examples=100, deadline=None)
    @given(edge_lists(), st.integers(0, 2**32 - 1))
    def test_same_bridges_and_stream(self, case, seed):
        n, edges = case
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = ensure_connected(edges, n, rng, lambda u, v: float(rng.uniform(1, 10)))
        want = reference_ensure_connected(
            edges, n, ref_rng, lambda u, v: float(ref_rng.uniform(1, 10))
        )
        assert got == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(edge_lists())
    def test_is_connected_matches_networkx(self, case):
        n, edges = case
        pairs = [(int(u), int(v)) for u, v in edges if u != v]
        keys = {(min(u, v), max(u, v)) for u, v in pairs}
        t = Topology(n_nodes=n, edges=sorted(keys), weights=np.ones(len(keys)))
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(keys)
        assert t.is_connected() == nx.is_connected(g)

    @settings(max_examples=60, deadline=None)
    @given(edge_lists())
    def test_components_ascending_by_smallest_node(self, case):
        """The order the bridges are drawn in: scipy numbers components by
        their smallest node, and a stable sort keeps members ascending."""
        n, edges = case
        comps = _components(edges, n)
        assert [c[0] for c in comps] == sorted(c[0] for c in comps)
        assert all(np.all(np.diff(c) > 0) for c in comps)
        assert sorted(np.concatenate(comps).tolist()) == list(range(n))

"""Tests for repro.topology.costs."""

import numpy as np
import pytest
from _topology_reference import cost_matrix as reference_cost_matrix
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import InfeasibleInstanceError
from repro.topology import (
    Topology,
    cost_matrix,
    powerlaw_graph,
    propagation_delays,
    random_graph,
    transit_stub_graph,
    waxman_graph,
)
from repro.topology.costs import COPPER_SPEED_M_PER_S, PRUNE_KEEP


class TestCostMatrix:
    def test_line_graph_paths(self):
        t = Topology(n_nodes=3, edges=[(0, 1), (1, 2)], weights=[2.0, 3.0])
        c = cost_matrix(t)
        assert c[0, 1] == 2.0
        assert c[0, 2] == 5.0  # sum of the links on the path
        assert c[2, 0] == 5.0

    def test_shortcut_taken(self):
        t = Topology(
            n_nodes=3, edges=[(0, 1), (1, 2), (0, 2)], weights=[1.0, 1.0, 10.0]
        )
        c = cost_matrix(t)
        assert c[0, 2] == 2.0  # the two-hop path beats the direct link

    def test_symmetric_zero_diag(self):
        t = random_graph(25, 0.3, seed=0)
        c = cost_matrix(t)
        assert np.array_equal(c, c.T)
        assert np.all(np.diag(c) == 0.0)

    def test_triangle_inequality(self):
        c = cost_matrix(random_graph(20, 0.4, seed=1))
        # Shortest-path closures satisfy c(i,k) <= c(i,j) + c(j,k).
        via = (c[:, :, None] + c[None, :, :]).min(axis=1)  # min_j c(i,j)+c(j,k)
        assert np.all(c <= via + 1e-9)

    def test_disconnected_raises(self):
        t = Topology(n_nodes=4, edges=[(0, 1), (2, 3)], weights=[1.0, 1.0])
        with pytest.raises(InfeasibleInstanceError):
            cost_matrix(t)

    def test_disconnected_unvalidated(self):
        t = Topology(n_nodes=4, edges=[(0, 1), (2, 3)], weights=[1.0, 1.0])
        c = cost_matrix(t, validate=False)
        assert np.isinf(c[0, 2])

    def test_single_node(self):
        t = Topology(n_nodes=1, edges=np.empty((0, 2)), weights=np.empty(0))
        assert cost_matrix(t).shape == (1, 1)

    def test_edgeless_multinode_raises(self):
        t = Topology(n_nodes=2, edges=np.empty((0, 2)), weights=np.empty(0))
        with pytest.raises(InfeasibleInstanceError):
            cost_matrix(t)

    def test_nonnegative(self):
        c = cost_matrix(random_graph(15, 0.5, seed=2))
        assert (c >= 0).all()


def _dense(n: int) -> int:
    """Links above which :func:`cost_matrix` takes the pruned path."""
    return 2 * PRUNE_KEEP * n


#: Link-weight families: uniform reals, small integers (exact ties), all
#: equal, decimals whose float sums round, and six orders of magnitude.
WEIGHTS = {
    "uniform": lambda rng, k: rng.uniform(1.0, 10.0, k),
    "integers": lambda rng, k: rng.integers(1, 5, k).astype(float),
    "equal": lambda rng, k: np.ones(k),
    "decimals": lambda rng, k: rng.choice([0.1, 0.2, 0.3, 0.7], k),
    "log-wide": lambda rng, k: 10.0 ** rng.uniform(-6.0, 6.0, k),
}


@st.composite
def generated_topologies(draw):
    """Every generator, sparse and dense, at small sizes."""
    seed = draw(st.integers(0, 2**31 - 1))
    kind = draw(st.sampled_from(["random", "waxman", "powerlaw", "transit-stub"]))
    if kind == "random":
        n = draw(st.integers(1, 70))
        return random_graph(n, draw(st.floats(0.0, 1.0)), seed=seed)
    if kind == "waxman":
        alpha, beta = draw(st.sampled_from([(0.4, 0.3), (0.05, 0.05), (1.0, 1.0)]))
        return waxman_graph(draw(st.integers(2, 70)), alpha=alpha, beta=beta, seed=seed)
    if kind == "powerlaw":
        m = draw(st.integers(1, 3))
        return powerlaw_graph(draw(st.integers(m + 1, 70)), m, seed=seed)
    shape = draw(st.tuples(*(st.integers(1, 3) for _ in range(4))))
    return transit_stub_graph(*shape, seed=seed)


@st.composite
def dense_topologies(draw):
    """Random graphs dense enough for the pruned path, under every weight
    family."""
    n = draw(st.integers(48, 90))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    edges = random_graph(n, draw(st.floats(0.8, 1.0)), seed=rng).edges
    weights = WEIGHTS[draw(st.sampled_from(sorted(WEIGHTS)))](rng, len(edges))
    t = Topology(n_nodes=n, edges=edges, weights=weights)
    assert t.n_edges > _dense(n)
    return t


@st.composite
def dominated_stars(draw):
    """A hub linked to every rim node of a dense light rim: each heavy hub
    link has a cheaper detour through the one light hub link."""
    n = draw(st.integers(48, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    rim = random_graph(n - 1, 0.9, weight_range=(1.0, 2.0), seed=rng)
    hub = np.stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)], axis=1)
    hub_w = rng.uniform(30.0, 40.0, n - 1)
    hub_w[draw(st.integers(0, n - 2))] = 1.0
    t = Topology(
        n_nodes=n,
        edges=np.concatenate([rim.edges + 1, hub]),
        weights=np.concatenate([rim.weights, hub_w]),
    )
    assert t.n_edges > _dense(n)
    return t


@st.composite
def disconnected_topologies(draw):
    """Two dense random graphs side by side with no link between them."""
    a, b = draw(dense_topologies()), draw(st.one_of(dense_topologies(), generated_topologies()))
    return Topology(
        n_nodes=a.n_nodes + b.n_nodes,
        edges=np.concatenate([a.edges, b.edges + a.n_nodes]),
        weights=np.concatenate([a.weights, b.weights]),
    )


def _outcome(fn, t: Topology, validate: bool):
    try:
        return fn(t, validate=validate).tobytes()
    except InfeasibleInstanceError as e:
        return str(e)


def tie_decided_by_margin() -> Topology:
    """A dense graph where a link ties, in floats, with its kept detour's
    length but is still the strict argmin from one side.

    Links 0-1 (0.01) and 1-2 (0.03) make a detour 0 -> 2 whose float length
    equals link 0-2's weight, 0.01 + 0.03.  Links 3-4 (0.3) and 4-0 (0.05)
    bring source 3 to node 0 at 0.35, where the link gives 0.38999999999999996
    and the detour 0.39 (the path back from 2 sums to 0.39 as well).  Seven
    0.001 leaves at nodes 0 and 2 keep link 0-2 out of both ends' eight
    lightest; every other pair of the 40 nodes is linked at 100.
    """
    n = 40
    w = np.full((n, n), 100.0)
    light = {(0, 1): 0.01, (1, 2): 0.03, (0, 2): 0.01 + 0.03, (3, 4): 0.3, (0, 4): 0.05}
    light.update({(0, leaf): 0.001 for leaf in range(5, 12)})
    light.update({(2, leaf): 0.001 for leaf in range(12, 19)})
    for (a, b), x in light.items():
        w[a, b] = x
    iu, ju = np.triu_indices(n, k=1)
    return Topology(n_nodes=n, edges=np.stack([iu, ju], axis=1), weights=w[iu, ju])


class TestMatchesReference:
    """The directed, pruned build returns the reference's bytes: scipy's
    undirected Dijkstra over every link."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            generated_topologies(),
            dense_topologies(),
            dominated_stars(),
            disconnected_topologies(),
            st.sampled_from(
                [
                    Topology(n_nodes=1, edges=np.empty((0, 2)), weights=np.empty(0)),
                    Topology(n_nodes=2, edges=[(0, 1)], weights=[0.3]),
                    Topology(n_nodes=3, edges=np.empty((0, 2)), weights=np.empty(0)),
                ]
            ),
        ),
        st.booleans(),
    )
    @example(tie_decided_by_margin(), True)
    def test_same_bytes(self, t, validate):
        want = _outcome(reference_cost_matrix, t, validate)
        assert _outcome(cost_matrix, t, validate) == want

    def test_margin_decides_a_float_tie(self):
        t = tie_decided_by_margin()
        assert t.n_edges > _dense(t.n_nodes)
        c = cost_matrix(t)
        assert c[3, 2] == 0.38999999999999996
        assert c.tobytes() == reference_cost_matrix(t).tobytes()


class TestPropagationDelays:
    def test_scaling(self):
        c = np.array([[0.0, 2.0], [2.0, 0.0]])
        d = propagation_delays(c, meters_per_cost_unit=1000.0)
        assert d[0, 1] == pytest.approx(2000.0 / COPPER_SPEED_M_PER_S)

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            propagation_delays(np.zeros((2, 2)), meters_per_cost_unit=0.0)

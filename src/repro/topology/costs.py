"""All-pairs communication-cost matrices.

The DRP's c(i, j) is "the sum of the costs of all the links in a chosen
path" when i and j are not adjacent — i.e. the shortest-path closure of
the link-cost graph.  We compute it with scipy's C Dijkstra over a sparse
adjacency, which is the standard vectorized route (an O(M^2) dense Python
loop would dominate instance-construction time).

One pass runs Dijkstra from every server, in directed mode, over a CSR
adjacency that holds both arcs of each link.

**Pruning dense graphs.**  The paper's pure random graphs (p = 0.4–0.8)
have far more links than shortest paths use.  On a graph with more than
``2 * PRUNE_KEEP * M`` links, a first pass runs over each node's
``PRUNE_KEEP`` lightest links only (a link stays when either end keeps
it), giving distances D'.  A second pass then runs over those links plus
every link (u, v) with ``w(u, v) < D'(u, v) + margin``; it is skipped when
no such link exists, and D' is the result.  Links whose ends the first
pass leaves disconnected (D' = inf) always go into the second pass.

**Why the bits do not change.**  Weights are positive and float addition
is monotone, so Dijkstra's labels are the least fixed point of
d(v) = min over arcs (u, v) of fl(d(u) + w(u, v)): the minimum, over
paths, of the left-to-right float sum along the path, whatever order the
heap settles nodes in.  Take a dropped link (u, v) of weight w and the
kept u→v path of k links and exact length S that gave D'(u, v).  For
any value x a path has reached u with, the float sum of x along the
detour is at most (x + S)(1 + e)^k, with e = 2^-53 the unit roundoff,
and fl(x + w) is at least (x + w)(1 - e).  The detour does no worse than
the link whenever

    w - S >= x((1 + e)^k - 1 + e) + S((1 + e)^k - 1) + e·w.

A link dropped by the rule has w >= fl(D'(u, v) + margin), and D'(u, v),
a float sum of the same k weights, is at least S(1 - e)^k, so
w - S >= margin·(1 - e) - (k + 1)·e·S.  Shortest paths are simple, so
k <= M - 1, and x and S are sums of at most M - 1 weights no larger than
the largest weight W.  To first order in M·e (below 1e-9 for any M whose
cost matrix fits in memory) the bound above plus the (k + 1)·e·S term is
at most e·W·(3M² - 4M + 2) < 3·M²·e·W, and the margin
``M² · W · 2^-50`` is 8·M²·e·W.  Every path
through a dropped link then does no better than the same path through
its kept detour (the reverse arc takes the detour backwards, under the
same bound), so the link is never the strict argmin of a label and
dropping it changes none.  Symmetrizing, the zero diagonal and the
``validate`` check then run on the distances an unpruned pass gives.

At M = 640 a pass costs scipy 60–90 ms even on a sparse graph, so pruning
pays only when the link count is well above the ``PRUNE_KEEP * M`` the
first pass keeps; below the threshold one pass over every link is
cheaper than two.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.errors import InfeasibleInstanceError
from repro.topology.graph import Topology

#: Signal propagation speed used by the paper's latency remark
#: ("the latency on a link was assumed to be ... m/s (copper wire)").
#: Electrical signalling in copper propagates at roughly 2/3 c.
COPPER_SPEED_M_PER_S: float = 2.0e8

#: Lightest links per node the first pruned pass keeps.  On the paper's
#: random graphs (p = 0.4 and 0.8, M = 320 and 640) the build time moves
#: by under 10% for values from 6 to 16; 8 keeps about 3.7% of a p = 0.4
#: graph's links at M = 640.
PRUNE_KEEP: int = 8


def cost_matrix(topology: Topology, *, validate: bool = True) -> np.ndarray:
    """Dense symmetric all-pairs shortest-path cost matrix.

    Parameters
    ----------
    topology:
        Any :class:`~repro.topology.graph.Topology`.
    validate:
        When True (default), raise :class:`InfeasibleInstanceError` if the
        graph is disconnected (infinite entries would poison the DRP).

    Returns
    -------
    numpy.ndarray
        (M, M) float matrix with zero diagonal, ``c[i, j] == c[j, i]``.
    """
    n = topology.n_nodes
    if topology.n_edges == 0:
        if n == 1:
            return np.zeros((1, 1))
        raise InfeasibleInstanceError("edgeless multi-node topology is disconnected")
    u, v = topology.edges[:, 0], topology.edges[:, 1]
    w = topology.weights
    if topology.n_edges > 2 * PRUNE_KEEP * n:
        c = _pruned_distances(n, u, v, w)
    else:
        c = _distances(n, u, v, w)
    if validate and not np.isfinite(c).all():
        raise InfeasibleInstanceError("topology is disconnected (infinite path cost)")
    # Dijkstra over a symmetric graph is symmetric up to float noise;
    # symmetrize exactly so c(i,j) == c(j,i) holds bit-for-bit (the DRP
    # formulation assumes it).
    c = np.minimum(c, c.T)
    np.fill_diagonal(c, 0.0)
    return c


def _distances(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dijkstra from every node over the links (u, v, w), both directions."""
    adj = csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(n, n),
    )
    return dijkstra(adj, directed=True)


def _pruned_distances(
    n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """:func:`_distances` over the links no kept detour dominates (see the
    module docstring for the rule and why it changes no distance)."""
    dense = np.full((n, n), np.inf)
    dense[u, v] = w
    dense[v, u] = w
    kth = np.partition(dense, PRUNE_KEEP - 1, axis=1)[:, PRUNE_KEEP - 1]
    kept = (w <= kth[u]) | (w <= kth[v])
    first = _distances(n, u[kept], v[kept], w[kept])
    margin = float(n) * n * w.max() * 2.0**-50
    needed = kept | (w < first[u, v] + margin)
    if np.array_equal(needed, kept):
        return first
    return _distances(n, u[needed], v[needed], w[needed])


def propagation_delays(
    cost: np.ndarray,
    *,
    meters_per_cost_unit: float = 1_000.0,
    speed_m_per_s: float = COPPER_SPEED_M_PER_S,
) -> np.ndarray:
    """Map a cost matrix to one-way propagation delays in seconds.

    The paper reverse-maps distance to the cost of shipping 1 kB and
    assumes copper-wire propagation; this helper exposes that latency view
    for reporting (the optimization itself runs on costs).
    """
    if meters_per_cost_unit <= 0 or speed_m_per_s <= 0:
        raise ValueError("scale factors must be positive")
    return np.asarray(cost, dtype=np.float64) * meters_per_cost_unit / speed_m_per_s

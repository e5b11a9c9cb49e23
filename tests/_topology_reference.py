"""Reference implementations the instance build is checked against.

``cost_matrix`` runs scipy's undirected Dijkstra from every server over
every link, and ``ensure_connected`` finds components with a Python
union-find.  They are the straightforward forms of the two routines in
``repro.topology`` and are kept verbatim: ``tests/test_topology_costs.py``
and ``tests/test_topology_graph.py`` require the production code to
return the same bytes and to leave the generator in the same state.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from repro.errors import InfeasibleInstanceError
from repro.topology.graph import Topology


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
    adj = csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(n, n),
    )
    c = shortest_path(adj, method="D", directed=False)
    if validate and not np.isfinite(c).all():
        raise InfeasibleInstanceError("topology is disconnected (infinite path cost)")
    # Dijkstra over a symmetric graph is symmetric up to float noise;
    # symmetrize exactly so c(i,j) == c(j,i) holds bit-for-bit (the DRP
    # formulation assumes it).
    c = np.minimum(c, c.T)
    np.fill_diagonal(c, 0.0)
    return c


def ensure_connected(
    edges: list[tuple[int, int]],
    n_nodes: int,
    rng: np.random.Generator,
    weight_fn,
) -> list[tuple[int, int, float]]:
    """Add minimal random bridging edges so the graph is connected.

    Components are found via union-find over ``edges``; one random
    representative pair per component boundary is bridged with a weight
    drawn from ``weight_fn(u, v)``.  Returns the list of added
    ``(u, v, w)`` triples.
    """
    parent = list(range(n_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv

    comps: dict[int, list[int]] = {}
    for i in range(n_nodes):
        comps.setdefault(find(i), []).append(i)
    roots = list(comps)
    added: list[tuple[int, int, float]] = []
    # Chain the components together in random order.
    rng.shuffle(roots)
    for a, b in zip(roots, roots[1:]):
        u = int(rng.choice(comps[a]))
        v = int(rng.choice(comps[b]))
        added.append((u, v, float(weight_fn(u, v))))
    return added

"""Waxman locality topologies.

Waxman's model places nodes uniformly in the unit square and links each
pair (u, v) with probability ``alpha * exp(-d(u, v) / (beta * L))`` where
``d`` is Euclidean distance and ``L`` the maximum possible distance.  The
link cost is proportional to plane distance — exactly the paper's
"distance between two servers was reverse mapped to the communication cost
of transmitting 1 kB".
"""

from __future__ import annotations

import numpy as np

from repro.topology.graph import Topology, ensure_connected
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive, check_positive_int


def waxman_graph(
    n_nodes: int,
    *,
    alpha: float = 0.4,
    beta: float = 0.3,
    cost_scale: float = 10.0,
    min_cost: float = 1.0,
    seed: SeedLike = None,
) -> Topology:
    """Sample a Waxman graph with distance-proportional link costs.

    Parameters
    ----------
    alpha:
        Overall link density knob in (0, 1].
    beta:
        Locality knob in (0, 1]; small beta favours short links.
    cost_scale:
        Cost of a link spanning the full unit-square diagonal.
    min_cost:
        Floor on link cost so arbitrarily-close nodes still pay something.
    """
    n_nodes = check_positive_int(n_nodes, "n_nodes")
    check_positive(alpha, "alpha")
    check_positive(beta, "beta")
    check_positive(cost_scale, "cost_scale")
    check_positive(min_cost, "min_cost")
    rng = as_generator(seed)

    pos = rng.random((n_nodes, 2))
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    l_max = np.sqrt(2.0)

    iu, ju = np.triu_indices(n_nodes, k=1)
    p_link = alpha * np.exp(-dist[iu, ju] / (beta * l_max))
    mask = rng.random(len(iu)) < p_link
    edges = np.stack([iu[mask], ju[mask]], axis=1)
    weights = np.maximum(min_cost, cost_scale * dist[edges[:, 0], edges[:, 1]] / l_max)

    def bridge_weight(u: int, v: int) -> float:
        return float(max(min_cost, cost_scale * dist[u, v] / l_max))

    extra = ensure_connected(edges, n_nodes, rng, bridge_weight)
    if extra:
        edges = np.concatenate(
            [edges.reshape(-1, 2), np.array([(u, v) for u, v, _ in extra], dtype=np.int64)]
        )
        weights = np.concatenate([weights, np.array([w for *_, w in extra])])

    return Topology(
        n_nodes=n_nodes,
        edges=edges,
        weights=weights,
        name=f"waxman(a={alpha:g},b={beta:g})",
        positions=pos,
    )

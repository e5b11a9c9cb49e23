"""GT-ITM-style "pure random" topologies G(M, P(edge = p)).

The paper's experimental setup: "A random graph G(M, P(edge = p)) with
0 <= p <= 1 contains all graphs with nodes (servers) M in which the edges
are chosen independently and with a probability p.  The pure random
topologies were obtained with p = {0.4, 0.5, 0.6, 0.7, 0.8}."

Link weights model the cost of shipping one simple data unit (1 kB in the
paper) across the link and are drawn uniformly from ``weight_range``; the
paper reverse-mapped plane distance to cost, which the Waxman generator
reproduces — for pure random graphs there is no embedding, so uniform
random costs are the standard stand-in.
"""

from __future__ import annotations

import numpy as np

from repro.topology.graph import Topology, ensure_connected
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int, check_probability


def random_graph(
    n_nodes: int,
    p: float,
    *,
    weight_range: tuple[float, float] = (1.0, 10.0),
    seed: SeedLike = None,
) -> Topology:
    """Sample an Erdős–Rényi G(n, p) topology, patched to be connected.

    Parameters
    ----------
    n_nodes:
        Number of servers M.
    p:
        Independent edge probability.
    weight_range:
        Closed interval for uniform link costs (lo, hi), lo > 0.
    seed:
        Anything accepted by :func:`repro.utils.rng.as_generator`.

    Notes
    -----
    If the sampled graph is disconnected (likely only for small ``n*p``),
    minimal bridging edges are added so the DRP cost matrix is finite,
    mirroring GT-ITM's behaviour of rejecting/fixing disconnected samples.
    """
    n_nodes = check_positive_int(n_nodes, "n_nodes")
    check_probability(p, "p")
    lo, hi = float(weight_range[0]), float(weight_range[1])
    if not (0 < lo <= hi):
        raise ValueError(f"weight_range must satisfy 0 < lo <= hi, got {weight_range}")
    rng = as_generator(seed)

    # Vectorized upper-triangle Bernoulli sampling.
    iu, ju = np.triu_indices(n_nodes, k=1)
    mask = rng.random(len(iu)) < p
    edges = np.stack([iu[mask], ju[mask]], axis=1)
    weights = rng.uniform(lo, hi, size=len(edges))

    def bridge_weight(_u: int, _v: int) -> float:
        return float(rng.uniform(lo, hi))

    extra = ensure_connected(edges, n_nodes, rng, bridge_weight)
    if extra:
        edges = np.concatenate(
            [edges.reshape(-1, 2), np.array([(u, v) for u, v, _ in extra], dtype=np.int64)]
        )
        weights = np.concatenate([weights, np.array([w for *_, w in extra])])

    return Topology(
        n_nodes=n_nodes, edges=edges, weights=weights, name=f"random(p={p:g})"
    )

"""GT-ITM transit-stub hierarchical topologies.

The transit-stub model composes the Internet's two-level structure: a
small core of *transit* domains (backbones) with *stub* domains (campus /
ISP edge networks) hanging off transit nodes.  Intra-domain links are
cheap, transit-to-stub links moderate, and transit-to-transit (backbone)
links expensive — giving the DRP a realistic locality structure where
replicating into a stub saves that stub's clients the backbone crossing.
"""

from __future__ import annotations

import numpy as np

from repro.topology.graph import Topology, ensure_connected
from repro.utils.rng import SeedLike, as_generator, spawn_children
from repro.utils.validation import check_positive_int, check_probability


def _dense_component(
    nodes: list[int], p: float, rng: np.random.Generator
) -> list[tuple[int, int]]:
    """Random connected edge set over ``nodes``: a random spanning chain
    plus independent extra edges with probability ``p``."""
    edges: list[tuple[int, int]] = []
    order = list(nodes)
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        edges.append((a, b))
    present = {tuple(sorted(e)) for e in edges}
    for idx, u in enumerate(nodes):
        for v in nodes[idx + 1 :]:
            key = (min(u, v), max(u, v))
            if key in present:
                continue
            if rng.random() < p:
                edges.append((u, v))
                present.add(key)
    return edges


def transit_stub_graph(
    n_transit_domains: int = 2,
    transit_size: int = 4,
    stubs_per_transit_node: int = 2,
    stub_size: int = 4,
    *,
    p_transit: float = 0.6,
    p_stub: float = 0.42,
    transit_link_cost: float = 20.0,
    transit_stub_cost: float = 8.0,
    stub_link_cost: float = 2.0,
    jitter: float = 0.25,
    seed: SeedLike = None,
) -> Topology:
    """Build a transit-stub topology.

    Total node count is
    ``n_transit_domains * transit_size * (1 + stubs_per_transit_node * stub_size)``.

    Parameters
    ----------
    p_transit, p_stub:
        Extra intra-domain edge densities (a spanning chain guarantees each
        domain is internally connected regardless).
    transit_link_cost, transit_stub_cost, stub_link_cost:
        Mean link costs for the three link classes; each sampled cost is
        multiplied by ``Uniform(1 - jitter, 1 + jitter)``.
    """
    n_transit_domains = check_positive_int(n_transit_domains, "n_transit_domains")
    transit_size = check_positive_int(transit_size, "transit_size")
    stub_size = check_positive_int(stub_size, "stub_size")
    if stubs_per_transit_node < 0:
        raise ValueError("stubs_per_transit_node must be >= 0")
    check_probability(p_transit, "p_transit")
    check_probability(p_stub, "p_stub")
    check_probability(jitter, "jitter")
    rng = as_generator(seed)
    rng_domains, rng_costs, rng_bridge = spawn_children(rng, 3)

    def cost(mean: float) -> float:
        return float(mean * rng_costs.uniform(1.0 - jitter, 1.0 + jitter))

    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    next_id = 0
    transit_nodes_by_domain: list[list[int]] = []

    # Transit domains.
    for _ in range(n_transit_domains):
        nodes = list(range(next_id, next_id + transit_size))
        next_id += transit_size
        transit_nodes_by_domain.append(nodes)
        for u, v in _dense_component(nodes, p_transit, rng_domains):
            edges.append((u, v))
            weights.append(cost(transit_link_cost))

    # Backbone: chain the transit domains (one inter-domain edge per pair of
    # consecutive domains, plus a closing edge when there are > 2 domains).
    for d in range(n_transit_domains):
        nxt = (d + 1) % n_transit_domains
        if n_transit_domains > 1 and not (n_transit_domains == 2 and d == 1):
            u = int(rng_domains.choice(transit_nodes_by_domain[d]))
            v = int(rng_domains.choice(transit_nodes_by_domain[nxt]))
            if u != v:
                edges.append((u, v))
                weights.append(cost(transit_link_cost * 1.5))

    # Stub domains hanging off each transit node.
    for domain in transit_nodes_by_domain:
        for t_node in domain:
            for _ in range(stubs_per_transit_node):
                nodes = list(range(next_id, next_id + stub_size))
                next_id += stub_size
                for u, v in _dense_component(nodes, p_stub, rng_domains):
                    edges.append((u, v))
                    weights.append(cost(stub_link_cost))
                gateway = int(rng_domains.choice(nodes))
                edges.append((t_node, gateway))
                weights.append(cost(transit_stub_cost))

    n_nodes = next_id
    # Deduplicate any accidental duplicate inter-domain edge.
    seen: dict[tuple[int, int], float] = {}
    for (u, v), w in zip(edges, weights):
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen[key] = w
    edges_arr = np.array(sorted(seen), dtype=np.int64).reshape(-1, 2)
    weights_arr = np.array([seen[tuple(e)] for e in edges_arr.tolist()])

    extra = ensure_connected(
        edges_arr, n_nodes, rng_bridge, lambda _u, _v: cost(transit_link_cost)
    )
    if extra:
        edges_arr = np.concatenate(
            [edges_arr, np.array([(u, v) for u, v, _ in extra], dtype=np.int64)]
        )
        weights_arr = np.concatenate([weights_arr, np.array([w for *_, w in extra])])

    return Topology(
        n_nodes=n_nodes,
        edges=edges_arr,
        weights=weights_arr,
        name=(
            f"transit-stub(T={n_transit_domains}x{transit_size},"
            f"S={stubs_per_transit_node}x{stub_size})"
        ),
    )

"""The :class:`Topology` container shared by all generators.

A topology is an undirected, connected, weighted graph over ``n_nodes``
servers.  Edge weights are positive link costs (the paper's c(i, j) for a
direct link); the DRP consumes the all-pairs shortest-path closure computed
in :mod:`repro.topology.costs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.errors import ConfigurationError


@dataclass
class Topology:
    """An undirected weighted graph in edge-list form.

    Parameters
    ----------
    n_nodes:
        Number of servers (the paper's M).
    edges:
        Integer array of shape (n_edges, 2); each row is an undirected edge
        (u, v) with u != v.  Duplicate or reversed duplicates are rejected.
    weights:
        Positive float array of shape (n_edges,) with per-link costs.
    name:
        Generator family label, e.g. ``"random(p=0.4)"``.
    positions:
        Optional (n_nodes, 2) array of plane coordinates (Waxman /
        transit-stub generators attach them; random graphs may not).
    """

    n_nodes: int
    edges: np.ndarray
    weights: np.ndarray
    name: str = "topology"
    positions: Optional[np.ndarray] = field(default=None)

    def __post_init__(self) -> None:
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if self.n_nodes <= 0:
            raise ConfigurationError(f"n_nodes must be > 0, got {self.n_nodes}")
        if len(self.edges) != len(self.weights):
            raise ConfigurationError(
                f"{len(self.edges)} edges but {len(self.weights)} weights"
            )
        if len(self.edges):
            if self.edges.min() < 0 or self.edges.max() >= self.n_nodes:
                raise ConfigurationError("edge endpoint out of range")
            if np.any(self.edges[:, 0] == self.edges[:, 1]):
                raise ConfigurationError("self-loops are not allowed")
            if np.any(self.weights <= 0):
                raise ConfigurationError("link weights must be positive")
            canon = np.sort(self.edges, axis=1)
            keys = canon[:, 0] * self.n_nodes + canon[:, 1]
            if len(np.unique(keys)) != len(keys):
                raise ConfigurationError("duplicate edges are not allowed")
        if self.positions is not None:
            self.positions = np.asarray(self.positions, dtype=np.float64)
            if self.positions.shape != (self.n_nodes, 2):
                raise ConfigurationError(
                    f"positions must have shape ({self.n_nodes}, 2), "
                    f"got {self.positions.shape}"
                )

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degree(self) -> np.ndarray:
        """Per-node degree vector."""
        deg = np.zeros(self.n_nodes, dtype=np.int64)
        if self.n_edges:
            np.add.at(deg, self.edges[:, 0], 1)
            np.add.at(deg, self.edges[:, 1], 1)
        return deg

    def adjacency(self) -> np.ndarray:
        """Dense symmetric weight matrix with 0 meaning "no direct link"."""
        a = np.zeros((self.n_nodes, self.n_nodes), dtype=np.float64)
        if self.n_edges:
            u, v = self.edges[:, 0], self.edges[:, 1]
            a[u, v] = self.weights
            a[v, u] = self.weights
        return a

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        for (u, v), w in zip(self.edges, self.weights):
            yield int(u), int(v), float(w)

    def is_connected(self) -> bool:
        """True when every node reaches every other over the links."""
        return len(_components(self.edges, self.n_nodes)) == 1

    def to_networkx(self):
        """Export to a :class:`networkx.Graph` (weights under ``"weight"``)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n_nodes))
        g.add_weighted_edges_from(
            (int(u), int(v), float(w)) for (u, v), w in zip(self.edges, self.weights)
        )
        return g

    def __repr__(self) -> str:
        return (
            f"Topology(name={self.name!r}, n_nodes={self.n_nodes}, "
            f"n_edges={self.n_edges})"
        )


def _components(edges, n_nodes: int) -> list[np.ndarray]:
    """The connected components of ``edges`` (pairs, any array-like), each
    an ascending node array, ordered by smallest node."""
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    graph = csr_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n_nodes, n_nodes)
    )
    # scipy numbers components in order of their smallest node; a stable
    # sort keeps each component's nodes ascending.
    n_comps, labels = connected_components(graph, directed=False)
    members = np.argsort(labels, kind="stable")
    return np.split(members, np.cumsum(np.bincount(labels, minlength=n_comps))[:-1])


def ensure_connected(
    edges: Sequence[tuple[int, int]] | np.ndarray,
    n_nodes: int,
    rng: np.random.Generator,
    weight_fn,
) -> list[tuple[int, int, float]]:
    """Add minimal random bridging edges so the graph is connected.

    ``edges`` is a list of pairs or an (n_edges, 2) array.  Components are
    ordered by their smallest node and chained in random order; one
    random representative pair per component boundary is bridged with a
    weight drawn from ``weight_fn(u, v)``.  Returns the list of added
    ``(u, v, w)`` triples.
    """
    comps = _components(edges, n_nodes)
    order = list(range(len(comps)))
    added: list[tuple[int, int, float]] = []
    # Chain the components together in random order.
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        u = int(rng.choice(comps[a]))
        v = int(rng.choice(comps[b]))
        added.append((u, v, float(weight_fn(u, v))))
    return added
